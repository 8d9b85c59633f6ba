"""Parameter types and built-in presets for microwave-to-optics entanglement links.

All times are microseconds (field names carry the unit), efficiencies and
probabilities are unitless in [0, 1]. Types are frozen dataclasses: values
are immutable after construction and safe to share between threads. A
field's range is declared on the field (see `bounded`); validate and the
config parser read the declarations through `schema`.
"""

from __future__ import annotations

import functools
import math
import operator
import typing
from dataclasses import dataclass, field, fields
from enum import Enum

from .errors import PresetNotFoundError

# Hard cap on delivery rounds and search-grid length; beyond this the grid
# (and the Monte Carlo round loop) would not fit in memory or time.
MAX_GRID_POINTS = 10_000_000

# Hard per-module ceiling on transducer channels; beyond this the
# communication hardware outgrows the processor it serves.
MAX_TRANSDUCERS_PER_MODULE = 10_000

# Nested distillation burns 2**rounds pairs per delivered pair.
MAX_DISTILL_ROUNDS = 10

# Upper bound on a transducer budget: 10^5 modules, each at the per-module
# channel ceiling.
MAX_TRANSDUCER_BUDGET = 1_000_000_000


def bounded(holds, text: str, **kwargs):
    """A dataclass field whose value must satisfy holds(value).

    `text` completes the violation "<section>.<field> <text>" that
    field_violations reports otherwise; kwargs go to dataclasses.field.
    """
    return field(metadata={"range": ((holds, text),)}, **kwargs)


def unit_interval(**kwargs):
    return bounded(lambda x: 0.0 <= x <= 1.0, "out of [0, 1]", **kwargs)


def positive(**kwargs):
    return bounded(lambda x: x > 0, "must be > 0", **kwargs)


def at_least_one(at_most: int | None = None, **kwargs):
    """A count >= 1 and, when at_most is given, <= at_most; each bound has
    its own violation text."""
    checks = ((lambda n: n >= 1, "must be >= 1"),)
    if at_most is not None:
        checks += ((lambda n: n <= at_most, f"must be <= {at_most}"),)
    return field(metadata={"range": checks}, **kwargs)


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


@dataclass(frozen=True)
class TransducerParams:
    """One transducer channel: efficiencies, added noise and attempt timing."""

    name: str = field(metadata={"config_default": "custom"})
    eta_mw: float = unit_interval()  # microwave loading/heralding efficiency
    p_mo: float = unit_interval()  # microwave<->optical conversion per attempt
    eta_det: float = unit_interval()  # optical detection chain efficiency
    n_th: float = bounded(lambda x: x >= 0, "must be >= 0")  # thermal photons per attempt
    t_rep_us: float = positive()  # attempt period
    bandwidth_mhz: float | None = None  # informational
    eta_per_uw: float | None = None  # informational, % per uW of pump

    @property
    def eta_tot(self) -> float:
        """Total qubit-to-detector efficiency eta_mw * p_mo * eta_det."""
        return self.eta_mw * self.p_mo * self.eta_det


@dataclass(frozen=True)
class StorageQubitParams:
    """Storage qubit holding the heralded state until delivery.

    t_coh_us defaults to t2_us (dephasing-dominated storage). Override it to
    model a different effective decay, e.g. t2/2 for two-sided accounting.
    """

    t1_us: float = positive()
    t2_us: float = positive()
    t_coh_us: float | None = positive(default=None)

    def __post_init__(self):
        if self.t_coh_us is None:
            object.__setattr__(self, "t_coh_us", self.t2_us)


@dataclass(frozen=True)
class MemoryParams:
    """Optical memory used to boost the heralding probability."""

    kind: MemoryKind
    eta_mem: float = unit_interval()  # store-and-reemit efficiency
    lifetime_us: float = positive()  # upper bound on t_del


@dataclass(frozen=True)
class ProtocolSpec:
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


@dataclass(frozen=True)
class DeliveryPolicy:
    """On-demand delivery settings for one link."""

    t_del_us: float  # fixed delivery time / timeout
    # channels racing for a herald
    n_parallel: int = at_least_one(at_most=MAX_TRANSDUCERS_PER_MODULE, default=1)
    distill_rounds: int = bounded(
        lambda n: 0 <= n <= MAX_DISTILL_ROUNDS,
        f"out of [0, {MAX_DISTILL_ROUNDS}]",
        default=0,
    )
    fidelity_model: FidelityModel = FidelityModel.THERMAL_HALF


@dataclass(frozen=True)
class LinkConfig:
    """Full description of one inter-module entanglement link."""

    transducer: TransducerParams
    qubit: StorageQubitParams
    protocol: ProtocolSpec
    policy: DeliveryPolicy
    memory: MemoryParams | None = None


class Architecture(Enum):
    LATTICE_SURGERY = "lattice_surgery"


@dataclass(frozen=True)
class ArchitectureSpec:
    """Module-level planning inputs."""

    qubits_per_processor: int = at_least_one()
    clock_cycle_us: float = positive()
    transducer_budget: int = at_least_one(at_most=MAX_TRANSDUCER_BUDGET)
    target_fidelity: float = bounded(lambda f: 0.5 < f < 1, "out of (0.5, 1)")
    architecture: Architecture = Architecture.LATTICE_SURGERY


@dataclass(frozen=True)
class LinkMetrics:
    """Derived link analytics at the policy's delivery time."""

    p_her: float  # herald probability per attempt, single channel
    i_prot: float  # protocol infidelity
    i_th: float  # thermal noise infidelity
    f_her: float  # heralded-state fidelity
    eta_link: float  # link capacity t_coh * p_her / t_rep
    p_success: float  # probability of any herald within t_del
    f_del: float  # delivered fidelity at t_del


@dataclass(frozen=True)
class DeviceSummary:
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

QUBIT_PRESETS = {
    "qubit1": StorageQubitParams(t1_us=500.0, t2_us=200.0),
    "qubit2": StorageQubitParams(t1_us=1e5, t2_us=2500.0),
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

    Unset optional fields are skipped. A float field that holds NaN is
    reported as such, since the range text alone would not name the cause.
    A field declared int must hold an integer: a Python int or a numpy
    integer (anything `operator.index` accepts), but not a bool, and not a
    float even when it is integral, since counts index arrays and ranges.
    """
    v: list[str] = []
    for f, kind, optional in schema(type(section)):
        value = getattr(section, f.name)
        if optional and value is None:
            continue
        for holds, text in f.metadata.get("range", ()):
            _require(v, f"{prefix}.{f.name} {text}", lambda: holds(value))
        if kind is int:
            try:
                operator.index(value)
                integral = not isinstance(value, bool)
            except TypeError:
                integral = False
            if not integral:
                v.append(f"{prefix}.{f.name} is not an integer")
        if kind is float:
            try:
                if math.isnan(value):
                    v.append(f"{prefix}.{f.name} is NaN")
            except TypeError:
                v.append(f"{prefix}.{f.name} is not a number")
    return v


def validate(config: LinkConfig) -> list[str]:
    """Check every invariant of a LinkConfig; returns a list of violations.

    Total: never raises for any finite input. An empty list means the
    config is valid. The declared field ranges come first, section by
    section, then the rules that tie fields together.
    """
    v: list[str] = []
    for f in fields(config):
        section = getattr(config, f.name)
        if section is not None:
            v += field_violations(section, f.name)

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
        if (p.basis, p.pump) != MEMORY_PROTOCOLS[m.kind]:
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
