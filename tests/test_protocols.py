"""Closed-form protocol analytics: herald probabilities and infidelities."""

import numpy as np
import pytest

from translink import (
    ConfigError,
    DivisionDomainError,
    FidelityModel,
    MemoryKind,
    MemoryParams,
    ModelDomainError,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    TransducerParams,
    analyze_protocol,
    herald_probability,
    herald_probability_with_memory,
    heralded_fidelity,
    preset,
    protocol_infidelity,
    thermal_infidelity,
)

T1 = preset("transducer1")
T2 = preset("transducer2")

P_1P_UP = lambda a: ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.UPCONVERSION, alpha=a)
P_1P_TMS = ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS)
P_2P_UP = ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION)
P_2P_TMS = ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.TMS)


def _transducer(eta_mw, p_mo, eta_det, n_th, t_rep=1.0):
    return TransducerParams(
        name="t", eta_mw=eta_mw, p_mo=p_mo, eta_det=eta_det, n_th=n_th, t_rep_us=t_rep
    )


def test_one_photon_upconversion_formulas():
    spec = P_1P_UP(0.1)
    assert herald_probability(T1, spec) == pytest.approx(2 * 0.1 * T1.eta_tot, rel=1e-15)
    assert protocol_infidelity(T1, spec) == 0.1
    assert thermal_infidelity(T1, spec) == pytest.approx(0.1 / (0.1 * 0.8), rel=1e-15)


def test_one_photon_tms_formulas_transducer1():
    # reference link: p_her 0.01, i_prot 0.208, i_th 0.128, F_her 0.728
    a = analyze_protocol(T1, P_1P_TMS)
    assert a.p_her == pytest.approx(0.01, rel=1e-12)
    assert a.i_prot == pytest.approx(0.208, rel=1e-12)
    assert a.i_th == pytest.approx(0.128, rel=1e-12)
    assert heralded_fidelity(a) == pytest.approx(0.728, rel=1e-12)


def test_two_photon_upconversion_formulas_transducer2():
    a = analyze_protocol(T2, P_2P_UP)
    assert a.p_her == pytest.approx(T2.eta_tot**2 / 2, rel=1e-15)
    assert a.i_prot == 0.0
    assert a.i_th == pytest.approx(6 * 0.01 / 0.95, rel=1e-15)


def test_two_photon_tms_formulas_transducer2():
    a = analyze_protocol(T2, P_2P_TMS)
    assert a.p_her == pytest.approx(T2.eta_tot**2 / 2, rel=1e-15)
    assert a.i_prot == pytest.approx((2 / 3) * 0.1 * 0.05, rel=1e-15)
    assert a.i_th == pytest.approx(2 * 0.01, rel=1e-15)


def test_two_photon_p_her_pump_independent():
    """Both two-photon pumps click at eta_tot^2/2 for equal eta_tot."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = _transducer(*rng.uniform(0.05, 1.0, size=3), n_th=rng.uniform(0, 0.2))
        assert herald_probability(t, P_2P_UP) == herald_probability(t, P_2P_TMS)


def test_p_mo_override_feeds_every_formula():
    # lowered conversion probability: p_her 0.02, i_prot 0.069 on transducer2
    spec = ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS, p_mo_override=0.02)
    a = analyze_protocol(T2, spec)
    assert a.p_her == pytest.approx(0.02, rel=1e-12)
    assert a.i_prot == pytest.approx(0.069, rel=1e-12)
    assert a.i_th == pytest.approx(2 * 0.01 * 0.95**2, rel=1e-12)


def test_memory_boost_spin_cavity():
    mem = MemoryParams(kind=MemoryKind.SPIN_CAVITY, eta_mem=1.0, lifetime_us=1000.0)
    boosted = herald_probability_with_memory(T2, P_2P_UP, mem)
    assert boosted == pytest.approx(T2.eta_tot * 1.0 / 2, rel=1e-15)
    assert boosted == pytest.approx(0.02375, rel=1e-12)
    # probability increase over the bare protocol: eta_mem / eta_tot
    bare = herald_probability(T2, P_2P_UP)
    assert boosted / bare == pytest.approx(mem.eta_mem / T2.eta_tot, rel=1e-12)


def test_memory_boost_catch_release():
    mem = MemoryParams(kind=MemoryKind.CATCH_RELEASE, eta_mem=0.9, lifetime_us=1000.0)
    boosted = herald_probability_with_memory(T2, P_2P_TMS, mem)
    assert boosted == pytest.approx(T2.eta_tot * 0.95 * 0.81 / 2, rel=1e-15)
    bare = herald_probability(T2, P_2P_TMS)
    assert boosted / bare == pytest.approx(
        mem.eta_mem**2 * T2.eta_mw / T2.eta_tot, rel=1e-12
    )


def test_memory_protocol_mismatch_rejected():
    mem = MemoryParams(kind=MemoryKind.SPIN_CAVITY, eta_mem=0.9, lifetime_us=100.0)
    with pytest.raises(ConfigError):
        herald_probability_with_memory(T2, P_2P_TMS, mem)
    with pytest.raises(ConfigError):
        herald_probability_with_memory(T2, P_1P_TMS, mem)


def test_analyze_protocol_uses_memory_formula():
    mem = MemoryParams(kind=MemoryKind.SPIN_CAVITY, eta_mem=1.0, lifetime_us=1000.0)
    a = analyze_protocol(T2, P_2P_UP, mem)
    assert a.p_her == pytest.approx(0.02375, rel=1e-12)


def test_missing_alpha_raises_config_error():
    spec = ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.UPCONVERSION)
    with pytest.raises(ConfigError):
        herald_probability(T1, spec)


def test_alpha_zero_division_domain():
    with pytest.raises(DivisionDomainError):
        thermal_infidelity(T1, P_1P_UP(0.0))


def test_eta_mw_zero_division_domain():
    dark = TransducerParams("dark", 0.0, 0.01, 0.5, 0.1, 1.0)
    for protocol in (P_1P_UP(0.1), P_2P_UP):
        with pytest.raises(DivisionDomainError):
            thermal_infidelity(dark, protocol)


def test_heralded_fidelity_models():
    a = analyze_protocol(T1, P_1P_TMS)
    assert heralded_fidelity(a, FidelityModel.THERMAL_HALF) == pytest.approx(
        1 - 0.208 - 0.064, rel=1e-12
    )
    assert heralded_fidelity(a, FidelityModel.LINEAR_SUM) == pytest.approx(
        1 - 0.208 - 0.128, rel=1e-12
    )


def test_heralded_fidelity_domain_violation_carries_sum():
    # alpha 0.05 on transducer1 gives i_th = 0.1/(0.05*0.8) = 2.5
    a = analyze_protocol(T1, P_1P_UP(0.05))
    with pytest.raises(ModelDomainError) as err:
        heralded_fidelity(a)
    assert err.value.offending_sum == pytest.approx(0.05 + 2.5 / 2, rel=1e-12)


def test_heralded_fidelity_result_floor():
    """Exactly at the precondition boundary the fidelity is 0.25, not an error."""
    # i_prot = 0.25, i_th = 0.25 / (0.25 * 1.0) = 1.0 -> weighted sum 0.75 exactly
    a = analyze_protocol(_transducer(1.0, 0.5, 1.0, n_th=0.25), P_1P_UP(0.25))
    assert a.i_prot + a.i_th / 2 == 0.75
    assert heralded_fidelity(a) == 0.25


def test_monotonicity_in_efficiencies():
    """p_her never decreases when any efficiency knob goes up."""
    rng = np.random.default_rng(42)
    protocols = [P_1P_UP(0.3), P_1P_TMS, P_2P_UP, P_2P_TMS]
    for _ in range(200):
        eta_mw, p_mo, eta_det = rng.uniform(0.05, 0.95, size=3)
        n_th = rng.uniform(0.0, 0.1)
        bump = rng.uniform(1.0, 1.05)
        base = _transducer(eta_mw, p_mo, eta_det, n_th)
        for spec in protocols:
            p0 = herald_probability(base, spec)
            for kick in (
                _transducer(min(eta_mw * bump, 1), p_mo, eta_det, n_th),
                _transducer(eta_mw, min(p_mo * bump, 1), eta_det, n_th),
                _transducer(eta_mw, p_mo, min(eta_det * bump, 1), n_th),
            ):
                assert herald_probability(kick, spec) >= p0 - 1e-15


def test_monotonicity_in_alpha_and_eta_mem():
    rng = np.random.default_rng(43)
    for _ in range(100):
        alpha = rng.uniform(0.01, 0.9)
        assert herald_probability(T1, P_1P_UP(min(alpha * 1.1, 1.0))) >= (
            herald_probability(T1, P_1P_UP(alpha)) - 1e-15
        )
        eta_mem = rng.uniform(0.1, 0.9)
        lo = MemoryParams(MemoryKind.SPIN_CAVITY, eta_mem, 1000.0)
        hi = MemoryParams(MemoryKind.SPIN_CAVITY, min(eta_mem * 1.1, 1.0), 1000.0)
        assert herald_probability_with_memory(
            T2, P_2P_UP, hi
        ) >= herald_probability_with_memory(T2, P_2P_UP, lo)


def test_thermal_infidelity_monotone_in_n_th():
    rng = np.random.default_rng(44)
    for spec in (P_1P_UP(0.2), P_1P_TMS, P_2P_UP, P_2P_TMS):
        for _ in range(50):
            n_th = rng.uniform(0.0, 0.3)
            lo = _transducer(0.8, 0.05, 0.5, n_th)
            hi = _transducer(0.8, 0.05, 0.5, n_th * 1.2 + 1e-3)
            assert thermal_infidelity(hi, spec) > thermal_infidelity(lo, spec)


def test_herald_probability_clamped():
    absurd = _transducer(1.0, 1.0, 1.0, 0.0)
    assert herald_probability(absurd, P_1P_UP(1.0)) == 1.0  # 2*1*1 clamped
    assert 0.0 <= herald_probability(absurd, P_2P_TMS) <= 1.0


def test_one_photon_tms_dark_transducer():
    """With no microwave coupling the TMS herald never fires."""
    dark = _transducer(0.0, 0.05, 0.5, 0.1)
    assert herald_probability(dark, P_1P_TMS) == 0.0
    assert protocol_infidelity(dark, P_1P_TMS) == pytest.approx(1.0)
    assert thermal_infidelity(dark, P_1P_TMS) == 0.0


def test_perfect_link_fidelity_one():
    a = analyze_protocol(_transducer(1.0, 0.0, 1.0, 0.0), P_2P_UP)
    assert heralded_fidelity(a) == 1.0
