"""Closed-form heralding probability and infidelity for the four link protocols.

The four protocols are the combinations of photon-number basis (one-photon,
two-photon) and transducer pump mode (upconversion, two-mode squeezing).
With eta_tot = eta_mw * p_mo * eta_det, p_mo the effective (possibly
overridden) scattering probability:

    protocol            p_her             i_prot                   i_th
    one-photon upconv   2 alpha eta_tot   alpha                    n_th/(alpha eta_mw)
    one-photon TMS      2 eta_tot/eta_mw  eta_mw p_mo + 1 - eta_mw 2 n_th eta_mw^2
    two-photon upconv   eta_tot^2/2       0                        6 n_th/eta_mw
    two-photon TMS      eta_tot^2/2       (2/3) p_mo (1 - eta_mw)  2 n_th

An optical memory replaces p_her: SpinCavity on two-photon upconversion
gives eta_tot eta_mem/2, CatchRelease on two-photon TMS gives
eta_tot eta_mw eta_mem^2/2. Formulas are first-order expressions valid for
alpha, p_mo, n_th << 1; p_her is clamped to [0, 1] only to guard absurd
inputs, never resummed.
"""

from __future__ import annotations

from .errors import ConfigError, DivisionDomainError, ModelDomainError
from .params import (
    ALPHA_PROTOCOL,
    MEMORY_PROTOCOLS,
    FidelityModel,
    MemoryKind,
    MemoryParams,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    Record,
    TransducerParams,
)


class ProtocolAnalytics(Record):
    """Per-attempt herald probability and infidelity components of a protocol."""

    p_her: float
    i_prot: float
    i_th: float


def _divisor(value: float, name: str, protocol: str) -> float:
    if value == 0:
        raise DivisionDomainError(
            f"thermal infidelity diverges at {name} = 0 for {protocol}"
        )
    return value


def analyze_protocol(
    t: TransducerParams, p: ProtocolSpec, memory: MemoryParams | None = None
) -> ProtocolAnalytics:
    """p_her, i_prot and i_th of one protocol, as tabulated in the module docstring.

    In the order one-photon upconversion, one-photon TMS, two-photon
    upconversion, two-photon TMS:

    - p_her, per attempt and channel: 2 alpha eta_tot, 2 eta_tot/eta_mw
      (0 at eta_mw = 0), eta_tot^2/2, eta_tot^2/2. An attached memory
      replaces it: eta_tot eta_mem/2 (SpinCavity) or
      eta_tot eta_mw eta_mem^2/2 (CatchRelease).
    - i_prot: alpha, eta_mw p_mo + 1 - eta_mw, 0, (2/3) p_mo (1 - eta_mw).
    - i_th: n_th/(alpha eta_mw), 2 n_th eta_mw^2, 6 n_th/eta_mw, 2 n_th.

    Raises ConfigError for a memory that does not boost this protocol and
    for one-photon upconversion without alpha, and DivisionDomainError
    where i_th divides by alpha = 0 or eta_mw = 0.
    """
    protocol = (p.basis, p.pump)
    if memory is not None and protocol != MEMORY_PROTOCOLS[memory.kind]:
        raise ConfigError(
            f"memory kind {memory.kind.value} incompatible with protocol "
            f"{p.basis.value}/{p.pump.value}"
        )
    if protocol == ALPHA_PROTOCOL and p.alpha is None:
        raise ConfigError("protocol.alpha required for the one-photon upconversion protocol")
    p_mo = p.effective_p_mo(t)
    eta_tot = t.eta_mw * p_mo * t.eta_det
    if protocol == ALPHA_PROTOCOL:
        name = "one-photon upconversion"
        p_her = 2.0 * p.alpha * eta_tot
        i_prot = p.alpha
        alpha = _divisor(p.alpha, "alpha", name)
        i_th = t.n_th / _divisor(alpha * t.eta_mw, "alpha * eta_mw", name)
    elif p.basis is PhotonBasis.ONE_PHOTON:
        # TMS: the microwave photon is created by the pump itself, so the
        # loading efficiency drops out of the click probability.
        p_her = 2.0 * eta_tot / t.eta_mw if t.eta_mw > 0 else 0.0
        i_prot = t.eta_mw * p_mo + (1.0 - t.eta_mw)
        i_th = 2.0 * t.n_th * t.eta_mw**2
    elif p.pump is PumpMode.UPCONVERSION:
        p_her = eta_tot**2 / 2.0
        i_prot = 0.0
        i_th = 6.0 * t.n_th / _divisor(t.eta_mw, "eta_mw", "two-photon upconversion")
    else:
        p_her = eta_tot**2 / 2.0
        i_prot = (2.0 / 3.0) * p_mo * (1.0 - t.eta_mw)
        i_th = 2.0 * t.n_th
    if memory is not None and memory.kind is MemoryKind.SPIN_CAVITY:
        p_her = eta_tot * memory.eta_mem / 2.0
    elif memory is not None:
        p_her = eta_tot * t.eta_mw * memory.eta_mem**2 / 2.0
    return ProtocolAnalytics(p_her=min(max(p_her, 0.0), 1.0), i_prot=i_prot, i_th=i_th)


def heralded_fidelity(
    analytics: ProtocolAnalytics,
    model: FidelityModel = FidelityModel.THERMAL_HALF,
) -> float:
    """Fidelity of the entangled state at the moment of the herald.

    Raises ModelDomainError when the combined infidelity exceeds 0.75; past
    that point the Bell-state error model stops being meaningful.
    """
    total = analytics.i_prot + analytics.i_th * model.thermal_weight
    if total > 0.75:
        err = ModelDomainError(
            f"combined infidelity {total:.4f} exceeds 0.75; heralded-state model invalid"
        )
        err.offending_sum = total
        raise err
    return 1.0 - total
