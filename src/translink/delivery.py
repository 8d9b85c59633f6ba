"""On-demand delivery model: repeated heralding attempts, storage decay, timeout.

Each round (every t_rep) all N parallel channels attempt entanglement; the
first herald wins and the state sits in the storage qubit until the agreed
delivery time t_del, decaying toward fidelity 1/2 with time constant T_coh.
If no herald arrives within K = floor(t_del/t_rep) rounds, a classical
anti-correlated pair of fidelity exactly 1/2 is delivered instead, so
delivery itself always succeeds (p_del = 1).

Closed form used throughout: with q = 1-(1-p_her)^N, r = 1-q and
d = exp(-t_rep/T_coh),

    p_success(K) = 1 - r^K
    S(K) = sum_{k=1..K} r^(k-1) q e^(-(K-k) t_rep/T_coh)
         = q (r^K - d^K) / (r - d)          (r != d)
    F_del = 0.5 + (F_her - 0.5) * e^(-rem/T_coh) * S(K),  rem = t_del - K t_rep

which avoids the overflowing e^(+k t_rep/T_coh) prefix sums for large grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    ModelDomainError,
    NoOptimumError,
    UnattainableError,
)
from .params import DeliveryPolicy, FidelityModel, LinkConfig, LinkMetrics, validate
from .protocols import analyze_protocol, heralded_fidelity

# Hard cap on search-grid length; beyond this require an explicit k_max.
MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class DeliveryCurve:
    """f_del and p_success on the grid t_del = k * t_rep, k = 1..K."""

    t_del_us: np.ndarray
    p_success: np.ndarray
    f_del: np.ndarray

    def rows(self):
        for t, p, f in zip(self.t_del_us, self.p_success, self.f_del):
            yield float(t), float(p), float(f)


@dataclass(frozen=True)
class ParallelBoost:
    """Per-round herald probability over n racing channels."""

    exact: float  # 1 - (1-p)^n
    approx: float  # n*p, the small-p linearization
    relative_gap: float  # (approx - exact)/exact


def _success_decay(q: float, k: np.ndarray, d: float):
    """Vectorized p_success and decay-weighted success mass S at round counts k.

    S is the sum over herald rounds of P(herald at round j) times the decay
    factor accumulated from round j to round k.
    """
    r = 1.0 - q
    rk = np.power(r, k, dtype=float)
    dk = np.power(d, k, dtype=float)
    if abs(r - d) < 1e-9:
        # degenerate limit (r^k - d^k)/(r - d) -> k * m^(k-1)
        m = 0.5 * (r + d)
        core = k * np.power(m, k - 1, dtype=float)
    else:
        core = (rk - dk) / (r - d)
    return 1.0 - rk, q * core


def _herald_and_decay(p_her, t_rep_us, t_coh_us, n_parallel):
    """Per-round herald probability q over n channels and storage decay d."""
    q = 1.0 - (1.0 - p_her) ** n_parallel
    d = math.exp(-t_rep_us / t_coh_us) if not math.isinf(t_coh_us) else 1.0
    return q, d


def delivery_point(
    p_her: float,
    f_her: float,
    t_del_us: float,
    t_rep_us: float,
    t_coh_us: float,
    n_parallel: int = 1,
) -> tuple[float, float]:
    """(p_success, f_del) at an arbitrary delivery time.

    A heralded state whose fidelity has fallen below the classical fallback
    would never be preferred over it, so the decaying term is floored at the
    fallback fidelity 1/2 (relevant only when f_her < 0.5).
    """
    k_rounds = math.floor(t_del_us / t_rep_us)
    if k_rounds < 1:
        raise ConfigError("timeout shorter than one attempt")
    q, d = _herald_and_decay(p_her, t_rep_us, t_coh_us, n_parallel)
    p_success, s = _success_decay(q, np.asarray([k_rounds]), d)
    rem = t_del_us - k_rounds * t_rep_us
    rem_decay = math.exp(-rem / t_coh_us) if not math.isinf(t_coh_us) else 1.0
    f_del = 0.5 + max(f_her - 0.5, 0.0) * rem_decay * float(s[0])
    return float(p_success[0]), f_del


def _grid(p_her, f_her, t_rep_us, t_coh_us, n_parallel, k_max):
    q, d = _herald_and_decay(p_her, t_rep_us, t_coh_us, n_parallel)
    k = np.arange(1, k_max + 1, dtype=float)
    p_success, s = _success_decay(q, k, d)
    f_del = 0.5 + max(f_her - 0.5, 0.0) * s
    return k * t_rep_us, p_success, f_del


def _default_k_max(config: LinkConfig, k_max: int | None) -> int:
    t = config.transducer
    t_coh = config.qubit.t_coh_us
    if k_max is None:
        if math.isinf(t_coh):
            raise ConfigError(
                "t_coh is infinite: the search grid is unbounded, pass k_max explicitly"
            )
        k_max = math.ceil(10.0 * t_coh / t.t_rep_us)
        if config.memory is not None:
            k_max = min(k_max, math.floor(config.memory.lifetime_us / t.t_rep_us))
    if k_max < 1:
        raise ConfigError("k_max must be >= 1")
    if k_max > MAX_GRID_POINTS:
        raise ConfigError(
            f"search grid of {k_max} points exceeds {MAX_GRID_POINTS}; pass a smaller k_max"
        )
    return k_max


def _link_quantities(config: LinkConfig, p_her_override: float | None = None):
    violations = validate(config)
    if violations:
        raise ConfigError("invalid link config: " + "; ".join(violations), violations)
    analytics = analyze_protocol(config.transducer, config.protocol, config.memory)
    f_her = heralded_fidelity(analytics, config.policy.fidelity_model)
    if p_her_override is not None:
        if not 0.0 < p_her_override <= 1.0:
            raise ConfigError("p_her override out of (0, 1]")
        analytics = replace(analytics, p_her=p_her_override)
    return analytics, f_her


def delivered_fidelity(
    config: LinkConfig, p_her_override: float | None = None
) -> LinkMetrics:
    """Full link analytics at the policy's delivery time.

    p_her and eta_link refer to a single channel; p_success and f_del account
    for the policy's n_parallel channels racing for the first herald.
    p_her_override substitutes an externally quoted herald probability for
    the formula value everywhere (the infidelities are unaffected).
    """
    analytics, f_her = _link_quantities(config, p_her_override)
    pol = config.policy
    t = config.transducer
    p_success, f_del = delivery_point(
        analytics.p_her,
        f_her,
        pol.t_del_us,
        t.t_rep_us,
        config.qubit.t_coh_us,
        pol.n_parallel,
    )
    return LinkMetrics(
        p_her=analytics.p_her,
        i_prot=analytics.i_prot,
        i_th=analytics.i_th,
        f_her=f_her,
        eta_link=config.qubit.t_coh_us * analytics.p_her / t.t_rep_us,
        p_success=p_success,
        f_del=f_del,
    )


def infidelity_breakdown(
    config: LinkConfig, p_her_override: float | None = None
) -> dict:
    """Split 1 - f_del at the policy's t_del into its four sources.

    protocol + thermal make up the heralded-state infidelity; decoherence is
    the decay of heralded states while stored; fallback is the mass of trials
    that time out and deliver the classical pair. Components sum to 1 - f_del
    exactly (for f_her < 0.5 the heralded terms are rescaled onto the 0.5
    fallback budget so the identity still holds).
    """
    analytics, f_her = _link_quantities(config, p_her_override)
    pol = config.policy
    model = pol.fidelity_model
    i_th_weighted = (
        analytics.i_th / 2.0 if model is FidelityModel.THERMAL_HALF else analytics.i_th
    )
    p_success, f_del = delivery_point(
        analytics.p_her,
        f_her,
        pol.t_del_us,
        config.transducer.t_rep_us,
        config.qubit.t_coh_us,
        pol.n_parallel,
    )
    if f_her >= 0.5:
        # recover S from f_del rather than recomputing the sum
        s = (f_del - 0.5) / (f_her - 0.5) if f_her > 0.5 else 0.0
        decoherence = (f_her - 0.5) * (p_success - s)
        fallback = (f_her - 0.5) * (1.0 - p_success)
        protocol, thermal = analytics.i_prot, i_th_weighted
    else:
        scale = 0.5 / (analytics.i_prot + i_th_weighted)
        protocol = analytics.i_prot * scale
        thermal = i_th_weighted * scale
        decoherence = fallback = 0.0
    return {
        "protocol": protocol,
        "thermal": thermal,
        "decoherence": decoherence,
        "fallback": fallback,
        "total": 1.0 - f_del,
    }


def delivery_curve(
    config: LinkConfig,
    k_max: int | None = None,
    p_her_override: float | None = None,
) -> DeliveryCurve:
    """Evaluate p_success and f_del over the grid t_del = k * t_rep.

    Default grid covers at least 1000 points and twice the policy's t_del,
    bounded by ten coherence times (past which f_del is flat at 0.5).
    """
    analytics, f_her = _link_quantities(config, p_her_override)
    t = config.transducer
    if k_max is None:
        k_policy = math.floor(config.policy.t_del_us / t.t_rep_us)
        k_max = min(_default_k_max(config, None), max(1000, 2 * k_policy))
        k_max = max(k_max, 1)
    else:
        k_max = _default_k_max(config, k_max)
    t_grid, p_success, f_del = _grid(
        analytics.p_her,
        f_her,
        t.t_rep_us,
        config.qubit.t_coh_us,
        config.policy.n_parallel,
        k_max,
    )
    return DeliveryCurve(t_del_us=t_grid, p_success=p_success, f_del=f_del)


def infidelity_breakdown_curve(
    config: LinkConfig,
    k_max: int | None = None,
    p_her_override: float | None = None,
) -> tuple[np.ndarray, dict]:
    """infidelity_breakdown evaluated along the delivery_curve grid.

    Returns (t_del_us grid, dict of component arrays keyed like
    infidelity_breakdown). Component arrays sum to `total` exactly.
    """
    analytics, f_her = _link_quantities(config, p_her_override)
    curve = delivery_curve(config, k_max=k_max, p_her_override=p_her_override)
    i_th_weighted = (
        analytics.i_th / 2.0
        if config.policy.fidelity_model is FidelityModel.THERMAL_HALF
        else analytics.i_th
    )
    n = curve.t_del_us.size
    if f_her >= 0.5:
        s = (
            (curve.f_del - 0.5) / (f_her - 0.5)
            if f_her > 0.5
            else np.zeros(n)
        )
        protocol = np.full(n, analytics.i_prot)
        thermal = np.full(n, i_th_weighted)
        decoherence = (f_her - 0.5) * (curve.p_success - s)
        fallback = (f_her - 0.5) * (1.0 - curve.p_success)
    else:
        scale = 0.5 / (analytics.i_prot + i_th_weighted)
        protocol = np.full(n, analytics.i_prot * scale)
        thermal = np.full(n, i_th_weighted * scale)
        decoherence = np.zeros(n)
        fallback = np.zeros(n)
    return curve.t_del_us, {
        "protocol": protocol,
        "thermal": thermal,
        "decoherence": decoherence,
        "fallback": fallback,
        "total": 1.0 - curve.f_del,
    }


def _peak_round(q: float, d: float) -> float:
    """Real round count k at which S(k) = q (r^k - d^k)/(r - d) peaks, r = 1 - q.

    dS/dk = 0 where r^k ln r = d^k ln d, so k* = ln(ln d / ln r) / ln(r/d).
    Returns inf when S never turns down and 1 when it falls from the start.
    """
    r = 1.0 - q
    if abs(r - d) < 1e-9:
        # the degenerate branch of _success_decay, S = q k m^(k-1)
        m = 0.5 * (r + d)
        if m >= 1.0:
            return math.inf
        return -1.0 / math.log(m) if m > 0.0 else 1.0
    if r == 1.0 or d == 1.0:
        # no decay, or q below float resolution: S = q (1 - d^k)/(1 - d) rises
        return math.inf
    if r == 0.0 or d == 0.0:
        # every round heralds, or a stored state is lost within one round
        return 1.0
    return math.log(math.log(d) / math.log(r)) / math.log(r / d)


def optimal_delivery_time(
    config: LinkConfig, k_max: int | None = None
) -> tuple[float, float]:
    """Exact discrete argmax of f_del over t_del = k * t_rep.

    The policy's own t_del_us is ignored. Searches k in [1, k_max], default
    k_max = ceil(10 T_coh / t_rep) (capped at the memory lifetime when a
    memory is attached). Ties break toward the smaller t_del.

    f_del(k) = 1/2 + (f_her - 1/2) S(k) with S(k) = q (r^k - d^k)/(r - d), which
    rises to one peak at the real k* of _peak_round and falls after it. So
    f_del is evaluated, exactly as delivery_curve evaluates it, only at the
    integers from floor(k*) - 2 to ceil(k*) + 2, with k* clipped to
    [1, k_max]. Special cases:

    - f_her <= 1/2: f_del is flat at 1/2, so the answer is k = 1.
    - q = 1 (r = 0) or d = 0: S falls from k = 1.
    - |r - d| < 1e-9: S = q k m^(k-1) with m = (r + d)/2 peaks at -1/ln m.
    - d = 1 (infinite T_coh) or r = 1: S never falls, so k* = k_max.

    When the best point of that window is its left end, f_del may have
    reached the same float value at smaller k: with d = 1, 1 - 0.5^k is
    exactly 1.0 from k = 54 on, and with q near 1e-10 the float rise can end
    well before k*. The first such k is found by bisection over the
    non-decreasing values left of the peak. Cost: a handful of points, plus
    O(log k_max) in that case, instead of the k_max-point grid.
    """
    analytics, f_her = _link_quantities(config)
    if analytics.p_her <= 0.0:
        raise NoOptimumError("p_her = 0: no herald can ever arrive")
    k_max = _default_k_max(config, k_max)
    t_rep = config.transducer.t_rep_us
    q, d = _herald_and_decay(
        analytics.p_her, t_rep, config.qubit.t_coh_us, config.policy.n_parallel
    )
    gain = max(f_her - 0.5, 0.0)

    def f_del_at(k):
        _, s = _success_decay(q, np.asarray(k, dtype=float), d)
        return 0.5 + gain * s

    if gain == 0.0:
        return float(t_rep), 0.5
    peak = min(max(_peak_round(q, d), 1.0), float(k_max))
    window = np.arange(
        max(1, math.floor(peak) - 2), min(k_max, math.ceil(peak) + 2) + 1
    )
    values = f_del_at(window)
    best = int(np.argmax(values))
    k_best, f_best = int(window[best]), values[best]
    if best == 0:
        lo = 1
        while lo < k_best:
            mid = (lo + k_best) // 2
            f_mid = f_del_at([mid])[0]
            if f_mid >= values[0]:
                k_best, f_best = mid, f_mid
            else:
                lo = mid + 1
    return float(k_best * t_rep), float(f_best)


def min_time_to_fidelity(
    config: LinkConfig, target: float, k_max: int | None = None
) -> float:
    """Smallest grid t_del with f_del >= target.

    Raises UnattainableError when even the optimal delivery time falls short,
    and ModelDomainError for targets outside (0.5, 1).
    """
    if not (0.5 < target < 1.0):
        raise ModelDomainError(f"target fidelity {target} outside (0.5, 1)")
    analytics, f_her = _link_quantities(config)
    k_max = _default_k_max(config, k_max)
    t = config.transducer
    t_grid, _, f_del = _grid(
        analytics.p_her, f_her, t.t_rep_us, config.qubit.t_coh_us,
        config.policy.n_parallel, k_max,
    )
    hits = np.nonzero(f_del >= target)[0]
    if hits.size == 0:
        raise UnattainableError(
            f"target fidelity {target} unattainable: best f_del is {f_del.max():.6f}"
        )
    return float(t_grid[hits[0]])


def parallel_speedup(p_her: float, n: int) -> ParallelBoost:
    """Per-round herald probability for n parallel channels."""
    if n < 1:
        raise ConfigError("n_parallel must be >= 1")
    exact = 1.0 - (1.0 - p_her) ** n
    approx = n * p_her
    gap = (approx - exact) / exact if exact > 0 else 0.0
    return ParallelBoost(exact=exact, approx=approx, relative_gap=gap)
