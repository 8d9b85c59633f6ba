"""Closed-form heralding probability and infidelity for the four link protocols.

The four protocols are the combinations of photon-number basis (one-photon,
two-photon) and transducer pump mode (upconversion, two-mode squeezing).
Formulas are first-order expressions valid for alpha, p_mo, n_th << 1;
results are clamped to [0, 1] only to guard absurd inputs, never resummed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, DivisionDomainError, ModelDomainError
from .params import (
    MEMORY_PROTOCOLS,
    FidelityModel,
    MemoryKind,
    MemoryParams,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    TransducerParams,
)


@dataclass(frozen=True)
class ProtocolAnalytics:
    """Per-attempt herald probability and infidelity components of a protocol."""

    p_her: float
    i_prot: float
    i_th: float


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _effective_eta_tot(t: TransducerParams, p: ProtocolSpec) -> float:
    return t.eta_mw * p.effective_p_mo(t) * t.eta_det


def _require_alpha(p: ProtocolSpec) -> float:
    if p.alpha is None:
        raise ConfigError("protocol.alpha required for the one-photon upconversion protocol")
    return p.alpha


def herald_probability(t: TransducerParams, p: ProtocolSpec) -> float:
    """Herald probability per attempt for a single channel, no memory.

    One-photon upconversion: 2*alpha*eta_tot. One-photon TMS: 2*eta_tot/eta_mw.
    Two-photon (either pump): eta_tot^2/2. eta_tot uses the effective p_mo.
    """
    eta_tot = _effective_eta_tot(t, p)
    if p.basis is PhotonBasis.ONE_PHOTON:
        if p.pump is PumpMode.UPCONVERSION:
            return _clamp01(2.0 * _require_alpha(p) * eta_tot)
        # TMS: the microwave photon is created by the pump itself, so the
        # loading efficiency drops out of the click probability.
        return _clamp01(2.0 * eta_tot / t.eta_mw) if t.eta_mw > 0 else 0.0
    return _clamp01(eta_tot**2 / 2.0)


def herald_probability_with_memory(
    t: TransducerParams, p: ProtocolSpec, m: MemoryParams
) -> float:
    """Herald probability with an optical memory absorbing the early photon.

    SpinCavity boosts two-photon upconversion to eta_tot*eta_mem/2;
    CatchRelease boosts two-photon TMS to eta_tot*eta_mw*eta_mem^2/2.
    """
    if (p.basis, p.pump) != MEMORY_PROTOCOLS[m.kind]:
        raise ConfigError(
            f"memory kind {m.kind.value} incompatible with protocol "
            f"{p.basis.value}/{p.pump.value}"
        )
    eta_tot = _effective_eta_tot(t, p)
    if m.kind is MemoryKind.SPIN_CAVITY:
        return _clamp01(eta_tot * m.eta_mem / 2.0)
    return _clamp01(eta_tot * t.eta_mw * m.eta_mem**2 / 2.0)


def protocol_infidelity(t: TransducerParams, p: ProtocolSpec) -> float:
    """Infidelity intrinsic to the protocol (uses the effective p_mo)."""
    p_mo = p.effective_p_mo(t)
    if p.basis is PhotonBasis.ONE_PHOTON:
        if p.pump is PumpMode.UPCONVERSION:
            return _require_alpha(p)
        return t.eta_mw * p_mo + (1.0 - t.eta_mw)
    if p.pump is PumpMode.UPCONVERSION:
        return 0.0
    return (2.0 / 3.0) * p_mo * (1.0 - t.eta_mw)


def _divisor(value: float, name: str, protocol: str) -> float:
    if value == 0:
        raise DivisionDomainError(
            f"thermal infidelity diverges at {name} = 0 for {protocol}"
        )
    return value


def thermal_infidelity(t: TransducerParams, p: ProtocolSpec) -> float:
    """Infidelity from the transducer's added thermal photons."""
    if p.basis is PhotonBasis.ONE_PHOTON:
        if p.pump is PumpMode.UPCONVERSION:
            protocol = "one-photon upconversion"
            alpha = _divisor(_require_alpha(p), "alpha", protocol)
            return t.n_th / _divisor(alpha * t.eta_mw, "alpha * eta_mw", protocol)
        return 2.0 * t.n_th * t.eta_mw**2
    if p.pump is PumpMode.UPCONVERSION:
        return 6.0 * t.n_th / _divisor(t.eta_mw, "eta_mw", "two-photon upconversion")
    return 2.0 * t.n_th


def analyze_protocol(
    t: TransducerParams, p: ProtocolSpec, memory: MemoryParams | None = None
) -> ProtocolAnalytics:
    """Bundle p_her (memory-boosted when a memory is attached) with infidelities."""
    return ProtocolAnalytics(
        p_her=herald_probability(t, p)
        if memory is None
        else herald_probability_with_memory(t, p, memory),
        i_prot=protocol_infidelity(t, p),
        i_th=thermal_infidelity(t, p),
    )


def heralded_fidelity(
    analytics: ProtocolAnalytics,
    model: FidelityModel = FidelityModel.THERMAL_HALF,
) -> float:
    """Fidelity of the entangled state at the moment of the herald.

    Raises ModelDomainError when the combined infidelity exceeds 0.75; past
    that point the Bell-state error model stops being meaningful.
    """
    weighted = analytics.i_th / 2.0 if model is FidelityModel.THERMAL_HALF else analytics.i_th
    total = analytics.i_prot + weighted
    if total > 0.75:
        err = ModelDomainError(
            f"combined infidelity {total:.4f} exceeds 0.75; heralded-state model invalid"
        )
        err.offending_sum = total
        raise err
    return 1.0 - total
