"""Records share their methods: each behaves as its stock frozen dataclass.

Every record class is compared, on real instances, with a twin built by
make_dataclass(frozen=True) from the same fields: repr, ==, hash, the
constructor's signature and errors, asdict, astuple, replace and the frozen
attributes must agree.
"""

import functools
import inspect
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    asdict,
    astuple,
    field,
    fields,
    make_dataclass,
    replace,
)
from pathlib import Path

import numpy as np
import pytest

import translink
from translink import (
    DEVICE_PRESETS,
    QUBIT_PRESETS,
    TRANSDUCER_PRESETS,
    BellDiagonalState,
    ConfigError,
    DistillMode,
    TrialColumns,
    build_manifest,
    circuit_cut_comparison,
    cryostat_budget_check,
    delivered_fidelity,
    delivery_curve,
    lattice_surgery_plan,
    nested_distill,
    parse_config,
    resolve,
    resolved_config,
    run_trials,
    tradeoff_surface,
)
from translink.params import Record

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

RECORDS = sorted(
    {
        value
        for value in (getattr(translink, name) for name in translink.__all__)
        if isinstance(value, type) and issubclass(value, Record)
    },
    key=lambda cls: cls.__name__,
)

# the methods that a stock frozen dataclass generates for each class
GENERATED = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def _twin_class(cls):
    spec = [
        (f.name, f.type, field(default=f.default, kw_only=f.kw_only, metadata=f.metadata))
        for f in fields(cls)
    ]
    hooks = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return make_dataclass(cls.__name__, spec, frozen=True, namespace=hooks)


TWINS = {cls: _twin_class(cls) for cls in RECORDS}


def _twin(value):
    """value with every record in it, nested ones and tuples of them
    included, rebuilt as its stock twin."""
    if isinstance(value, Record):
        return TWINS[type(value)](
            **{f.name: _twin(getattr(value, f.name)) for f in fields(value)}
        )
    if isinstance(value, tuple):
        return tuple(_twin(v) for v in value)
    return value


def _walk(value):
    """Every record in value, value itself first."""
    if isinstance(value, Record):
        yield value
        for f in fields(value):
            yield from _walk(getattr(value, f.name))
    elif isinstance(value, tuple):
        for v in value:
            yield from _walk(v)


@functools.cache
def _samples() -> dict:
    """Real instances of every record, by class."""
    roots = [*TRANSDUCER_PRESETS.values(), *QUBIT_PRESETS.values(), *DEVICE_PRESETS.values()]
    for name in ("ex1", "ex2", "ex3", "lattice"):
        parsed = parse_config(EXAMPLES / f"{name}.json")
        link = resolve(parsed.link)
        roots += [parsed, link, delivered_fidelity(link), delivery_curve(link, k_max=50)]
        roots.append(build_manifest(name, resolved_config(parsed), seed=3))
        if parsed.architecture is not None:
            roots.append(lattice_surgery_plan(parsed.architecture, link))
            roots += tradeoff_surface(100, link)
    roots.append(run_trials(resolve(parse_config(EXAMPLES / "ex3.json").link), 500, seed=7))
    roots.append(
        run_trials(resolve(parse_config(EXAMPLES / "ex1.json").link), 500, seed=7,
                   keep_trials=True)
    )
    roots += [
        circuit_cut_comparison(0.01, 10**6),
        circuit_cut_comparison(0.0, 10**3),
        cryostat_budget_check(20, 40),
        nested_distill(0.9, 3, DistillMode.RECURRENCE),
        nested_distill(0.9, 3, DistillMode.CALIBRATED),
    ]
    out = {cls: [] for cls in RECORDS}
    for root in roots:
        for record in _walk(root):
            out[type(record)].append(record)
    return out


def _outcome(fn):
    """fn()'s value, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # compared, not handled
        return type(exc)


def test_the_records_are_the_public_record_classes():
    for name in translink.__all__:  # load every submodule
        getattr(translink, name)
    assert set(Record.__subclasses__()) == set(RECORDS)
    assert all(_samples()[cls] for cls in RECORDS), "a record with no sample"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_agrees_with_its_stock_twin(cls):
    twin_cls = TWINS[cls]
    assert inspect.signature(cls) == inspect.signature(twin_cls)
    assert cls.__match_args__ == twin_cls.__match_args__
    for record in _samples()[cls]:
        twin = _twin(record)
        assert repr(record) == repr(twin)
        assert list(vars(record)) == list(vars(twin))
        assert repr(asdict(record)) == repr(asdict(twin))
        assert repr(astuple(record)) == repr(astuple(twin))
        first = fields(cls)[0].name
        assert repr(replace(record)) == repr(replace(twin))
        changed = {first: getattr(record, first)}
        assert repr(replace(record, **changed)) == repr(replace(twin, **changed))
        if cls is TrialColumns:  # array equality, below
            continue
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(twin))
        copy = replace(record)
        assert _outcome(lambda: record == copy) == _outcome(lambda: twin == _twin(copy))
        numbers = [f.name for f in fields(cls) if type(getattr(record, f.name)) in (int, float)]
        for name in numbers[-1:]:  # an unequal pair
            bumped = {name: getattr(record, name) + 1}
            assert _outcome(lambda: record == replace(record, **bumped)) == _outcome(
                lambda: twin == replace(twin, **bumped)
            )
        assert (record == object()) is (twin == object()) is False
        other = _samples()[RECORDS[RECORDS.index(cls) - 1]][0]  # another record class
        assert record.__eq__(twin) is record.__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_frozen(cls):
    record = _samples()[cls][0]
    twin = _twin(record)
    for name in (fields(cls)[0].name, "extra"):
        for obj in (record, twin):
            with pytest.raises(FrozenInstanceError) as assigned:
                setattr(obj, name, 1)
            with pytest.raises(FrozenInstanceError) as deleted:
                delattr(obj, name)
            if obj is record:
                messages = (str(assigned.value), str(deleted.value))
        assert messages == (str(assigned.value), str(deleted.value))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_rejects_bad_arguments(cls):
    record = _samples()[cls][0]
    values = {f.name: getattr(record, f.name) for f in fields(cls)}
    positional = [values[f.name] for f in fields(cls) if not f.kw_only]
    keywords = {f.name: values[f.name] for f in fields(cls) if f.kw_only}
    duplicate = cls.__match_args__[0]
    bad = [
        ((*positional, 1), keywords),  # too many positional
        ((), {**values, "extra": 1}),  # an unknown keyword
        ((*positional,), {**keywords, duplicate: values[duplicate]}),
    ]
    required = [f.name for f in fields(cls) if f.default is MISSING]
    assert required, "every record has a field without a default"
    for name in required:
        bad.append(((), {k: v for k, v in values.items() if k != name}))  # a missing field
    for target in (cls, TWINS[cls]):
        assert repr(target(*positional, **keywords)) == repr(record)
        for args, kwargs in bad:
            with pytest.raises(TypeError):
                target(*args, **kwargs)


def test_bell_diagonal_state_post_init_still_checks():
    with pytest.raises(ConfigError, match="sum to 1"):
        BellDiagonalState(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ConfigError, match=">= 0"):
        BellDiagonalState(p1=1.1, p2=-0.1, p3=0.0, p4=0.0)
    with pytest.raises(ConfigError, match="sum to 1"):
        replace(BellDiagonalState.werner(0.9), p1=0.95)


def test_trial_columns_keep_array_equality_and_no_hash():
    (stats,) = (s for s in _samples()[translink.MCStats] if s.trials is not None)
    columns = stats.trials
    same = TrialColumns(*(np.copy(getattr(columns, f.name)) for f in fields(columns)))
    assert columns == same and same is not columns
    assert columns != replace(columns, f_del=columns.f_del + 1.0)
    assert TrialColumns.__hash__ is None
    with pytest.raises(TypeError):
        hash(columns)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_no_record_class_carries_generated_methods(cls):
    own = {name for name in GENERATED if name in vars(cls)}
    # TrialColumns writes its own array __eq__, which unsets __hash__
    assert own == ({"__eq__", "__hash__"} if cls is TrialColumns else set())
    # a record without a docstring would get dataclass's signature text
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")
