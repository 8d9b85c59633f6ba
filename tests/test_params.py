"""Parameter types, presets and the validate() totality contract."""

import math
import typing
from dataclasses import fields, replace

import numpy as np
import pytest

from translink import (
    ArchitectureSpec,
    DeliveryPolicy,
    DeviceSummary,
    LinkConfig,
    MemoryKind,
    MemoryParams,
    PhotonBasis,
    PresetNotFoundError,
    ProtocolSpec,
    PumpMode,
    QUBIT_PRESETS,
    StorageQubitParams,
    TRANSDUCER_PRESETS,
    TransducerParams,
    preset,
    validate,
    validate_architecture,
)

# Published eta_tot values carry table rounding; 5% covers the worst row.
ETA_TOT_TABLE = {"transducer1": 4e-3, "transducer2": 5e-2}
ETA_TOT_RTOL = 0.05 + 1e-12


def _link(transducer="transducer1", qubit="qubit1", protocol=None, policy=None,
          memory=None):
    return LinkConfig(
        transducer=preset(transducer),
        qubit=preset(qubit),
        protocol=protocol or ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS),
        policy=policy or DeliveryPolicy(t_del_us=88.0),
        memory=memory,
    )


def test_preset_transducer1_exact_row():
    t = preset("transducer1")
    assert (t.eta_mw, t.p_mo, t.eta_det) == (0.8, 0.01, 0.5)
    assert t.n_th == 0.1
    assert t.t_rep_us == 1.0


def test_preset_transducer2_exact_row():
    t = preset("transducer2")
    assert (t.eta_mw, t.p_mo, t.eta_det) == (0.95, 0.1, 0.5)
    assert t.n_th == 0.01
    assert t.t_rep_us == 1.0


def test_preset_qubits():
    assert preset("qubit1").t_coh_us == 200.0
    assert preset("qubit2").t_coh_us == 2500.0


def test_eta_tot_matches_published_within_rounding():
    for name, published in ETA_TOT_TABLE.items():
        t = preset(name)
        assert t.eta_tot == t.eta_mw * t.p_mo * t.eta_det
        assert abs(t.eta_tot - published) <= ETA_TOT_RTOL * published


def test_unknown_preset_lists_valid_names():
    with pytest.raises(PresetNotFoundError) as err:
        preset("transducerX")
    assert "transducer1" in str(err.value)
    assert "qubit2" in str(err.value)


def test_device_presets_are_informational():
    dev = preset("brubaker2022")
    assert isinstance(dev, DeviceSummary)
    assert dev.eta_tot == 0.38
    assert dev.t_rep_us == 5000.0


def test_validate_accepts_preset_combination():
    assert validate(_link()) == []


def test_validate_flags_out_of_range_efficiency():
    bad = TransducerParams(
        name="bad", eta_mw=1.2, p_mo=0.01, eta_det=0.5, n_th=0.1, t_rep_us=1.0
    )
    cfg = LinkConfig(
        transducer=bad,
        qubit=preset("qubit1"),
        protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS),
        policy=DeliveryPolicy(t_del_us=88.0),
    )
    assert any("eta_mw out of [0, 1]" in v for v in validate(cfg))


def test_validate_alpha_exactly_for_one_photon_upconversion():
    missing = _link(protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.UPCONVERSION))
    assert any("alpha required" in v for v in validate(missing))
    spurious = _link(
        protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS, alpha=0.1)
    )
    assert any("alpha only applies" in v for v in validate(spurious))
    ok = _link(
        protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.UPCONVERSION, alpha=0.1)
    )
    assert validate(ok) == []


def test_validate_p_mo_override_bounds():
    too_big = _link(
        protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS, p_mo_override=0.5)
    )
    assert any("p_mo_override" in v for v in validate(too_big))


def test_validate_memory_compatibility():
    mem = MemoryParams(kind=MemoryKind.SPIN_CAVITY, eta_mem=0.9, lifetime_us=500.0)
    wrong = _link(memory=mem)  # one-photon protocol
    assert any("incompatible" in v for v in validate(wrong))
    right = _link(
        protocol=ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION),
        memory=mem,
    )
    assert validate(right) == []


def test_validate_rejects_enum_value_in_place_of_member():
    """A string where an Enum member belongs is a violation, not the wrong formulas."""
    cfg = _link(protocol=ProtocolSpec("one_photon", "tms"))
    assert validate(cfg) == [
        "protocol.basis is not a PhotonBasis",
        "protocol.pump is not a PumpMode",
    ]


def test_validate_total_over_non_member_memory_kind():
    """validate returns the violation for a non-member kind instead of raising."""
    two_photon = ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION)
    cfg = _link(protocol=two_photon, memory=MemoryParams("spin_cavity", 1.0, 1000.0))
    assert validate(cfg) == ["memory.kind is not a MemoryKind"]
    # the compatibility rule names basis and pump by value: with a non-member
    # basis it stays silent, and the basis is reported once
    mem = MemoryParams(MemoryKind.SPIN_CAVITY, 1.0, 1000.0)
    cfg = _link(protocol=ProtocolSpec("two_photon", PumpMode.UPCONVERSION), memory=mem)
    assert validate(cfg) == ["protocol.basis is not a PhotonBasis"]


def test_validate_t_del_against_memory_lifetime():
    mem = MemoryParams(kind=MemoryKind.SPIN_CAVITY, eta_mem=0.9, lifetime_us=50.0)
    cfg = _link(
        protocol=ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION),
        policy=DeliveryPolicy(t_del_us=88.0),
        memory=mem,
    )
    assert any("exceeds memory.lifetime_us" in v for v in validate(cfg))


def test_validate_t_del_at_least_one_attempt():
    cfg = _link(policy=DeliveryPolicy(t_del_us=0.5))
    assert any("t_del_us must be >=" in v for v in validate(cfg))


def test_validate_distill_rounds_cap():
    cfg = _link(policy=DeliveryPolicy(t_del_us=88.0, distill_rounds=11))
    assert any("distill_rounds" in v for v in validate(cfg))


def test_validate_is_total_over_random_garbage():
    """validate never raises, whatever finite or non-finite junk it gets."""
    rng = np.random.default_rng(2024)
    specials = [0.0, -1.0, 1.5, math.nan, math.inf, -math.inf, None, "x"]
    for _ in range(300):
        pick = lambda: (
            specials[rng.integers(len(specials))]
            if rng.random() < 0.4
            else float(rng.normal())
        )
        cfg = LinkConfig(
            transducer=TransducerParams(
                name="junk", eta_mw=pick(), p_mo=pick(), eta_det=pick(),
                n_th=pick(), t_rep_us=pick(),
            ),
            qubit=StorageQubitParams(t_coh_us=pick() or 1.0),
            protocol=ProtocolSpec(
                PhotonBasis.ONE_PHOTON, PumpMode.TMS,
                p_mo_override=pick() if rng.random() < 0.5 else None,
            ),
            policy=DeliveryPolicy(t_del_us=pick(), n_parallel=1),
        )
        violations = validate(cfg)
        assert isinstance(violations, list)


def test_validate_caps_rounds_and_channels():
    """t_del spans at most MAX_GRID_POINTS attempts; n_parallel at most 10^4."""
    assert validate(_link(policy=DeliveryPolicy(t_del_us=1e7))) == []
    for t_del in (1e7 + 1, 1e308):
        cfg = _link(policy=DeliveryPolicy(t_del_us=t_del))
        assert any("spans more than 10000000 rounds" in v for v in validate(cfg))
    assert validate(_link(policy=DeliveryPolicy(88.0, n_parallel=10_000))) == []
    for n in (10_001, 10**30):
        cfg = _link(policy=DeliveryPolicy(88.0, n_parallel=n))
        assert "policy.n_parallel must be <= 10000" in validate(cfg)


def test_presets_are_frozen():
    t = preset("transducer1")
    with pytest.raises(Exception):
        t.eta_mw = 0.9
    assert TRANSDUCER_PRESETS["transducer1"].eta_mw == 0.8
    assert QUBIT_PRESETS["qubit1"].t_coh_us == 200.0


@pytest.mark.parametrize(
    "section", ["transducer", "qubit", "protocol", "policy", "memory"]
)
def test_validate_names_every_nan_float_field(section):
    """NaN slips past every range comparison, so it gets its own violation."""
    cfg = _link(
        transducer="transducer2",
        protocol=ProtocolSpec(
            PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION, alpha=0.5,
            p_mo_override=0.05,
        ),
        memory=MemoryParams(MemoryKind.SPIN_CAVITY, eta_mem=0.9, lifetime_us=500.0),
    )
    part = getattr(cfg, section)
    part = replace(
        part,
        **{f.name: 1.0 for f in fields(part) if getattr(part, f.name) is None},
    )
    hints = typing.get_type_hints(type(part))
    floats = [f.name for f in fields(part) if hints[f.name] in (float, float | None)]
    assert floats
    for name in floats:
        bad = replace(cfg, **{section: replace(part, **{name: math.nan})})
        assert f"{section}.{name} is NaN" in validate(bad)


def test_validate_names_a_nan_p_her_reference():
    """The link's own float field is named without a section prefix."""
    bad = replace(_link(), p_her_reference=math.nan)
    assert "p_her_reference is NaN" in validate(bad)


SECTIONS = ["transducer", "qubit", "protocol", "policy", "memory", "architecture"]


def _valid_sections():
    """One valid value per section, with every optional field set."""
    cfg = _link(
        transducer="transducer2",
        protocol=ProtocolSpec(
            PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION, p_mo_override=0.05,
        ),
        policy=DeliveryPolicy(t_del_us=88.0, n_parallel=3, distill_rounds=2),
        memory=MemoryParams(MemoryKind.SPIN_CAVITY, eta_mem=0.9, lifetime_us=500.0),
    )
    return cfg, ArchitectureSpec(1000, 1.0, 10_000, 0.89)


def _violations(cfg, arch, section, part):
    if section == "architecture":
        return validate_architecture(part)
    return validate(replace(cfg, **{section: part}))


@pytest.mark.parametrize("section", SECTIONS)
def test_validate_names_every_non_integer_int_field(section):
    """A bool or a float in an int field is reported, though it passes the
    range; numpy integers count as integers."""
    cfg, arch = _valid_sections()
    part = arch if section == "architecture" else getattr(cfg, section)
    assert _violations(cfg, arch, section, part) == []
    hints = typing.get_type_hints(type(part))
    ints = [f.name for f in fields(part) if hints[f.name] in (int, int | None)]
    assert bool(ints) == (section in ("policy", "architecture"))
    for name in ints:
        for bad in (2.5, 2.0, True, False, math.inf, math.nan, np.float64(2.0),
                    "2"):
            v = _violations(cfg, arch, section, replace(part, **{name: bad}))
            assert f"{section}.{name} is not an integer" in v, (name, bad)
        fine = replace(part, **{name: np.int64(getattr(part, name))})
        assert _violations(cfg, arch, section, fine) == []

