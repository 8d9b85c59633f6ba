"""Parameter types and built-in presets for microwave-to-optics entanglement links.

All times are microseconds (field names carry the unit), efficiencies and
probabilities are unitless in [0, 1]. Types are records: frozen dataclasses
built on `Record`, which every record class of the package shares. Values
are immutable after construction and safe to share between threads. A
field's range is declared on the field (see `bounded`); validate and the
config parser read the declarations through `schema`.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator
import typing
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, is_dataclass
from enum import Enum

from .errors import ConfigError, PresetNotFoundError

# Hard cap on policy.t_del_us in rounds and on analyze's delivery-curve grid,
# which holds a few float arrays of this length.
MAX_GRID_POINTS = 10_000_000

# Hard per-module ceiling on transducer channels; beyond this the
# communication hardware outgrows the processor it serves.
MAX_TRANSDUCERS_PER_MODULE = 10_000

# Nested distillation burns 2**rounds pairs per delivered pair.
MAX_DISTILL_ROUNDS = 10

# Upper bound on a transducer budget: 10^5 modules, each at the per-module
# channel ceiling.
MAX_TRANSDUCER_BUDGET = 1_000_000_000


class Record:
    """Base of the package's records: frozen dataclasses that share their methods.

    A subclass is made a dataclass with no generated methods, so fields(),
    asdict, replace, __match_args__ and schema work on it as on any other.
    Its __init__, repr, ==, hash and frozen attributes are the ones below,
    which behave as @dataclass(frozen=True) would generate them for that
    class, but are compiled once for every record rather than once a class
    at each import. A field may set only a default, kw_only and metadata.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(cls, init=False, repr=False, eq=False)
        declared = fields(cls)
        if any(not f.init or not f.repr or not f.compare or f.hash is not None
               or f.default_factory is not MISSING for f in declared):
            raise TypeError(f"{cls.__name__}: a record field sets only a default, "
                            "kw_only and metadata")
        names = tuple(f.name for f in declared)
        # dataclass order: positional fields, then the keyword-only ones
        ordered = sorted(declared, key=lambda f: f.kw_only)
        positional = tuple(f.name for f in ordered if not f.kw_only)
        # every field in declared order, at its default or MISSING
        template = {f.name: f.default for f in declared}
        required = frozenset(f.name for f in declared if f.default is MISSING)
        arity = len(names) if positional == names else -1  # for the all-positional path
        cls.__spec = (positional, template, required, arity, hasattr(cls, "__post_init__"))
        # the fields' values as a tuple (attrgetter gives one name's bare value)
        get = operator.attrgetter(*names)
        cls.__key = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))
        param = inspect.Parameter
        cls.__signature__ = inspect.Signature([
            param(f.name, param.KEYWORD_ONLY if f.kw_only else param.POSITIONAL_OR_KEYWORD,
                  default=param.empty if f.default is MISSING else f.default,
                  annotation=f.type)
            for f in ordered
        ], return_annotation=None)

    def __init__(self, *args, **kwargs):
        positional, template, required, arity, post_init = self.__spec
        if kwargs or len(args) != arity:
            given = dict(zip(positional, args), **kwargs) if args else kwargs
            values = {**template, **given}  # an unknown keyword adds a key
            if (len(values) != len(template) or len(given) != len(args) + len(kwargs)
                    or not given.keys() >= required):
                # too many positional, a duplicate or unknown keyword, a missing field
                self.__signature__.bind(*args, **kwargs)  # raises the TypeError that says which
        else:
            values = zip(template, args)
        self.__dict__.update(values)  # one call, not a setattr per field
        if post_init:
            self.__post_init__()

    def __repr__(self):
        template = self.__spec[1]  # its keys are the fields, in order
        pairs = zip(template, self.__key(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__key(self) == other.__key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.__key(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def bounded(*checks, **kwargs):
    """A dataclass field whose value must pass each check, a (holds, text) pair.

    A value fails a check unless holds(value) is true, and `text` completes
    the violation "<section>.<field> <text>" that field_violations reports
    for it, in the order of the checks. kwargs go to dataclasses.field.
    """
    return field(metadata={"range": checks}, **kwargs)


# the checks that several fields share. A NaN fails all but _FINITE, and
# field_violations also reports it as NaN
_UNIT = (lambda x: 0.0 <= x <= 1.0, "out of [0, 1]")
_POSITIVE = (lambda x: x > 0, "must be > 0")
_FINITE = (lambda x: x != math.inf, "must be finite")
_AT_LEAST_ONE = (lambda n: n >= 1, "must be >= 1")


def _at_most(limit: int) -> tuple:
    return (lambda n: n <= limit, f"must be <= {limit}")


class PhotonBasis(Enum):
    ONE_PHOTON = "one_photon"
    TWO_PHOTON = "two_photon"


class PumpMode(Enum):
    UPCONVERSION = "upconversion"
    TMS = "tms"


class MemoryKind(Enum):
    SPIN_CAVITY = "spin_cavity"
    CATCH_RELEASE = "catch_release"


# The (basis, pump) protocol that each memory kind boosts; no other pairing
# runs.
MEMORY_PROTOCOLS = {
    MemoryKind.SPIN_CAVITY: (PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION),
    MemoryKind.CATCH_RELEASE: (PhotonBasis.TWO_PHOTON, PumpMode.TMS),
}

# The one (basis, pump) protocol that takes the emission probability alpha.
ALPHA_PROTOCOL = (PhotonBasis.ONE_PHOTON, PumpMode.UPCONVERSION)


class FidelityModel(Enum):
    """How protocol and thermal infidelity combine into the heralded fidelity.

    THERMAL_HALF: thermal false heralds deliver a fidelity-1/2 state, so only
    half of i_th is lost (F = 1 - i_prot - i_th/2). Reproduces the worked
    examples and is the default. LINEAR_SUM subtracts both in full.
    """

    THERMAL_HALF = "thermal_half"
    LINEAR_SUM = "linear_sum"

    @property
    def thermal_weight(self) -> float:
        """The share of i_th that the heralded fidelity loses."""
        return 0.5 if self is FidelityModel.THERMAL_HALF else 1.0


class TransducerParams(Record):
    """One transducer channel: efficiencies, added noise and attempt timing."""

    name: str = field(default="custom", kw_only=True)
    eta_mw: float = bounded(_UNIT)  # microwave loading/heralding efficiency
    p_mo: float = bounded(_UNIT)  # microwave<->optical conversion per attempt
    eta_det: float = bounded(_UNIT)  # optical detection chain efficiency
    n_th: float = bounded((lambda x: x >= 0, "must be >= 0"))  # thermal photons per attempt
    t_rep_us: float = bounded(_POSITIVE)  # attempt period

    @property
    def eta_tot(self) -> float:
        """Total qubit-to-detector efficiency eta_mw * p_mo * eta_det."""
        return self.eta_mw * self.p_mo * self.eta_det


class StorageQubitParams(Record):
    """Storage qubit holding the heralded pair until delivery.

    t_coh_us is the decay constant of the stored pair's fidelity toward 1/2:
    a device's T2 for dephasing-limited storage, or T2/2 to count decay on
    both halves of the pair.
    """

    t_coh_us: float = bounded(_POSITIVE)


class MemoryParams(Record):
    """Optical memory used to boost the heralding probability."""

    kind: MemoryKind
    eta_mem: float = bounded(_UNIT)  # store-and-reemit efficiency
    lifetime_us: float = bounded(_POSITIVE)  # upper bound on t_del


class ProtocolSpec(Record):
    """Which heralding protocol runs on the link.

    alpha is the qubit emission probability, required exactly for the
    one-photon upconversion protocol. p_mo_override deliberately lowers the
    transducer's scattering probability (used to trade rate for protocol
    fidelity); it feeds every formula that involves p_mo.
    """

    basis: PhotonBasis
    pump: PumpMode
    alpha: float | None = None
    p_mo_override: float | None = None

    def effective_p_mo(self, transducer: TransducerParams) -> float:
        if self.p_mo_override is not None:
            return self.p_mo_override
        return transducer.p_mo


class DeliveryPolicy(Record):
    """On-demand delivery settings for one link."""

    t_del_us: float  # fixed delivery time / timeout
    # channels racing for a herald
    n_parallel: int = bounded(_AT_LEAST_ONE, _at_most(MAX_TRANSDUCERS_PER_MODULE), default=1)
    distill_rounds: int = bounded(
        (lambda n: 0 <= n <= MAX_DISTILL_ROUNDS, f"out of [0, {MAX_DISTILL_ROUNDS}]"),
        default=0,
    )
    fidelity_model: FidelityModel = FidelityModel.THERMAL_HALF


class LinkConfig(Record):
    """Full description of one inter-module entanglement link.

    Its fields are a config file's link keys, in the order in which they
    are parsed, validated and written back. p_her_reference, an externally
    quoted herald probability, replaces the formula value in every model
    (see delivery.resolve), so the config alone determines the resolved
    link.
    """

    transducer: TransducerParams
    qubit: StorageQubitParams
    protocol: ProtocolSpec
    memory: MemoryParams | None = field(default=None, kw_only=True)
    policy: DeliveryPolicy
    p_her_reference: float | None = bounded(
        (lambda p: 0.0 < p <= 1.0, "out of (0, 1]"), default=None, kw_only=True
    )


class Architecture(Enum):
    LATTICE_SURGERY = "lattice_surgery"


class ArchitectureSpec(Record):
    """Module-level planning inputs."""

    qubits_per_processor: int = bounded(_AT_LEAST_ONE)
    clock_cycle_us: float = bounded(_POSITIVE, _FINITE)
    transducer_budget: int = bounded(_AT_LEAST_ONE, _at_most(MAX_TRANSDUCER_BUDGET))
    target_fidelity: float = bounded((lambda f: 0.5 < f < 1, "out of (0.5, 1)"))
    architecture: Architecture = Architecture.LATTICE_SURGERY


class LinkMetrics(Record):
    """Derived link analytics at the policy's delivery time."""

    p_her: float  # herald probability per attempt, single channel
    i_prot: float  # protocol infidelity
    i_th: float  # thermal noise infidelity
    f_her: float  # heralded-state fidelity
    eta_link: float  # link capacity t_coh * p_her / t_rep
    p_success: float  # probability of any herald within t_del
    f_del: float  # delivered fidelity at t_del


class DeviceSummary(Record):
    """Informational survey row for a demonstrated transducer device.

    These lack the eta_mw/p_mo/eta_det split, so they cannot drive the
    protocol formulas; they exist for reference output only.
    """

    name: str
    technology: str  # EMO, EO or REI
    eta_tot: float
    t_rep_us: float
    bandwidth_mhz: float
    n_add: float  # input-referred added noise
    eta_per_uw: float | None = None
    note: str | None = None


# Projected parameter sets used by the worked examples. Set 1 is within
# current experimental reach; set 2 assumes modest transducer improvements.
TRANSDUCER_PRESETS = {
    "transducer1": TransducerParams(
        name="transducer1", eta_mw=0.8, p_mo=0.01, eta_det=0.5, n_th=0.1, t_rep_us=1.0
    ),
    "transducer2": TransducerParams(
        name="transducer2", eta_mw=0.95, p_mo=0.1, eta_det=0.5, n_th=0.01, t_rep_us=1.0
    ),
}

# Each qubit stores at its T2: set 1 has T1 = 500 us and T2 = 200 us, set 2
# has T1 = 10^5 us and T2 = 2500 us.
QUBIT_PRESETS = {
    "qubit1": StorageQubitParams(t_coh_us=200.0),
    "qubit2": StorageQubitParams(t_coh_us=2500.0),
}

# Published device survey (informational presets; see DeviceSummary).
DEVICE_PRESETS = {
    "weaver2024": DeviceSummary(
        "weaver2024", "EMO", 3e-6, 10.0, 15.0, 6.0, 0.05, note="1 %/uW in CW operation"
    ),
    "jiang2023": DeviceSummary("jiang2023", "EMO", 1e-4, 5.9, 1.5, 2.0),
    "brubaker2022": DeviceSummary(
        "brubaker2022", "EMO", 0.38, 5000.0, 2.2e-4, 3.2, 16.0,
        note="repetition time limited by bandwidth",
    ),
    "meesala2024": DeviceSummary(
        "meesala2024", "EMO", 6e-3, 20.0, 5.5, 0.14, note="eta_tot is an upper bound"
    ),
    "zhao2024": DeviceSummary(
        "zhao2024", "EMO", 8e-3, 11.2, 8.9e-2, 0.94, 5.0,
        note="eta_tot upper bound; repetition time limited by bandwidth",
    ),
    "warner2025": DeviceSummary(
        "warner2025", "EO", 1e-3, 1.0, 30.0, 0.12, 0.05,
        note="eta_tot upper bound; N_add microwave-output-referred (12 optical-input-referred)",
    ),
    "shen2024": DeviceSummary(
        "shen2024", "EO", 1e-4, 6e-5, 17000.0, 23.0, 1e-7,
        note="eta_tot well below 1e-4; repetition time limited by bandwidth",
    ),
    "xie2025": DeviceSummary("xie2025", "REI", 3.4e-5, 10000.0, 0.5, 1.24, 1e-5),
}


def preset(name: str):
    """Look up a built-in preset by name.

    Returns TransducerParams or StorageQubitParams for the projected
    parameter sets, or a DeviceSummary for the published device rows.
    Raises PresetNotFoundError for unknown names.
    """
    for table in (TRANSDUCER_PRESETS, QUBIT_PRESETS, DEVICE_PRESETS):
        if name in table:
            return table[name]
    valid = list(TRANSDUCER_PRESETS) + list(QUBIT_PRESETS) + list(DEVICE_PRESETS)
    raise PresetNotFoundError(name, valid)


def _require(violations, message, predicate):
    """Record `message` unless predicate() is true; TypeError counts as false."""
    try:
        ok = bool(predicate())
    except TypeError:
        ok = False
    if not ok:
        violations.append(message)


@functools.cache
def schema(cls) -> tuple:
    """(field, type, optional) for each field of a dataclass, in order.

    A field declared `X | None` is an optional X. The types are resolved
    once per class, because get_type_hints is slow.
    """
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        kind = hints[f.name]
        args = typing.get_args(kind)
        optional = type(None) in args
        if optional:
            (kind,) = (a for a in args if a is not type(None))
        out.append((f, kind, optional))
    return tuple(out)


def field_violations(section, prefix: str) -> list[str]:
    """Violations of the ranges and types declared on one section's fields.

    A field is named `prefix.field`, or `field` when prefix is "" (the
    root), and a section-valued field's own fields are checked under its
    name. Unset optional fields are skipped. A float field that holds NaN is
    reported as such, since the range text alone would not name the cause.
    A field declared int must hold an integer: a Python int or a numpy
    integer (anything `operator.index` accepts), but not a bool, and not a
    float even when it is integral, since counts index arrays and ranges.
    A field declared as an Enum must hold one of its members, not the
    member's value.
    """
    v: list[str] = []
    for f, kind, optional in schema(type(section)):
        value = getattr(section, f.name)
        name = f"{prefix}.{f.name}" if prefix else f.name
        if optional and value is None:
            continue
        if is_dataclass(value):  # a section: no range, int, float or Enum of its own
            v += field_violations(value, name)
        for holds, text in f.metadata.get("range", ()):
            _require(v, f"{name} {text}", lambda: holds(value))
        if kind is int:
            try:
                operator.index(value)
                integral = not isinstance(value, bool)
            except TypeError:
                integral = False
            if not integral:
                v.append(f"{name} is not an integer")
        if kind is float:
            try:
                if math.isnan(value):
                    v.append(f"{name} is NaN")
            except TypeError:
                v.append(f"{name} is not a number")
        if issubclass(kind, Enum) and not isinstance(value, kind):
            v.append(f"{name} is not a {kind.__name__}")
    return v


def validate(config: LinkConfig) -> list[str]:
    """Check every invariant of a LinkConfig; returns a list of violations.

    Total: never raises for any finite input. An empty list means the
    config is valid. The declared field ranges come first, in field order,
    then the rules that tie fields together.
    """
    v = field_violations(config, "")

    t, p, pol, m = config.transducer, config.protocol, config.policy, config.memory
    if (p.basis, p.pump) == ALPHA_PROTOCOL:
        if p.alpha is None:
            v.append("protocol.alpha required for the one-photon upconversion protocol")
        else:
            _require(
                v, "protocol.alpha out of (0, 1]", lambda: 0.0 < p.alpha <= 1.0
            )
    elif p.alpha is not None:
        v.append("protocol.alpha only applies to the one-photon upconversion protocol")
    if p.p_mo_override is not None:
        _require(
            v,
            "protocol.p_mo_override out of (0, transducer.p_mo]",
            lambda: 0.0 < p.p_mo_override <= t.p_mo,
        )

    _require(
        v,
        "policy.t_del_us must be >= transducer.t_rep_us",
        lambda: pol.t_del_us >= t.t_rep_us,
    )
    _require(v, "policy.t_del_us must be finite", lambda: not math.isinf(pol.t_del_us))
    _require(
        v,
        f"policy.t_del_us spans more than {MAX_GRID_POINTS} rounds of "
        "transducer.t_rep_us",
        # the other checks report a non-positive t_rep or a non-finite t_del
        lambda: not (t.t_rep_us > 0 and pol.t_del_us < math.inf)
        or pol.t_del_us / t.t_rep_us <= MAX_GRID_POINTS,
    )

    if m is not None:
        # a kind, basis or pump that is not a member is reported above
        members = (
            isinstance(m.kind, MemoryKind)
            and isinstance(p.basis, PhotonBasis)
            and isinstance(p.pump, PumpMode)
        )
        if members and (p.basis, p.pump) != MEMORY_PROTOCOLS[m.kind]:
            v.append(
                f"memory.kind {m.kind.value} incompatible with protocol "
                f"{p.basis.value}/{p.pump.value}"
            )
        try:
            exceeds = m.lifetime_us > 0 and pol.t_del_us > m.lifetime_us
        except TypeError:
            exceeds = False
        if exceeds:
            v.append("policy.t_del_us exceeds memory.lifetime_us")
    return v


def validate_architecture(spec: ArchitectureSpec) -> list[str]:
    """Violations of an ArchitectureSpec's declared field ranges."""
    return field_violations(spec, "architecture")


def raise_violations(what: str, violations: list[str]) -> None:
    """Raise ConfigError("invalid <what>: v1; v2", violations) unless there are none."""
    if violations:
        raise ConfigError(f"invalid {what}: " + "; ".join(violations), violations)
