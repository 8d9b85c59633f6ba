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
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ModelDomainError,
    NoOptimumError,
    UnattainableError,
)
from .params import MAX_GRID_POINTS, FidelityModel, LinkConfig, LinkMetrics, validate
from .protocols import ProtocolAnalytics, analyze_protocol, heralded_fidelity


@dataclass(frozen=True)
class Link:
    """A link resolved once for every model that runs it.

    formula holds the closed-form protocol analytics. p_her is the herald
    probability per attempt and channel that the models use: the formula
    value, or the external reference that replaced it. f_her is the
    heralded fidelity under the policy's fidelity model.
    """

    config: LinkConfig
    formula: ProtocolAnalytics
    p_her: float
    f_her: float


def resolve(config: LinkConfig, p_her_reference: float | None = None) -> Link:
    """Validate a link and evaluate its protocol analytics, once.

    A p_her_reference, an externally quoted herald probability in (0, 1],
    replaces the formula value in every model; the infidelities and f_her
    are unaffected.
    """
    violations = validate(config)
    if violations:
        raise ConfigError("invalid link config: " + "; ".join(violations), violations)
    formula = analyze_protocol(config.transducer, config.protocol, config.memory)
    f_her = heralded_fidelity(formula, config.policy.fidelity_model)
    p_her = formula.p_her
    if p_her_reference is not None:
        if not 0.0 < p_her_reference <= 1.0:
            raise ConfigError("p_her reference out of (0, 1]")
        p_her = p_her_reference
    return Link(config=config, formula=formula, p_her=p_her, f_her=f_her)


@dataclass(frozen=True)
class DeliveryCurve:
    """f_del and p_success on the grid t_del = k * t_rep, k = 1..K."""

    t_del_us: np.ndarray
    p_success: np.ndarray
    f_del: np.ndarray


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


def _f_del(q: float, d: float, gain: float, k: np.ndarray, rem_decay: float = 1.0):
    """(p_success, f_del) after k rounds, k a float array, gain = max(f_her - 1/2, 0).

    rem_decay is the storage decay between the last round and t_del. The
    grid points have none, and gain * 1.0 is exact, so a grid point and a
    delivery time on it give the same float.
    """
    p_success, s = _success_decay(q, k, d)
    return p_success, 0.5 + gain * rem_decay * s


def _herald_and_decay(p_her, t_rep_us, t_coh_us, n_parallel):
    """Per-round herald probability q over n channels and storage decay d."""
    q = 1.0 - (1.0 - p_her) ** n_parallel
    d = math.exp(-t_rep_us / t_coh_us) if not math.isinf(t_coh_us) else 1.0
    return q, d


def _link_herald_and_decay(link: Link):
    c = link.config
    return _herald_and_decay(
        link.p_her, c.transducer.t_rep_us, c.qubit.t_coh_us, c.policy.n_parallel
    )


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
    rem = t_del_us - k_rounds * t_rep_us
    rem_decay = math.exp(-rem / t_coh_us) if not math.isinf(t_coh_us) else 1.0
    p_success, f_del = _f_del(
        q, d, max(f_her - 0.5, 0.0), np.asarray([k_rounds], dtype=float), rem_decay
    )
    return float(p_success[0]), float(f_del[0])


def _grid(link: Link, k_max: int):
    k = np.arange(1, k_max + 1, dtype=float)
    q, d = _link_herald_and_decay(link)
    p_success, f_del = _f_del(q, d, max(link.f_her - 0.5, 0.0), k)
    return k * link.config.transducer.t_rep_us, p_success, f_del


def _whole(x: float, rounding) -> int | float:
    """rounding(x) as an int; an infinite x, past any grid, stays a float."""
    return rounding(x) if math.isfinite(x) else x


def _checked_k_max(k_max) -> int:
    if k_max < 1:
        raise ConfigError("k_max must be >= 1")
    if k_max > MAX_GRID_POINTS:
        raise ConfigError(
            f"search grid of {k_max} points exceeds {MAX_GRID_POINTS}; pass a smaller k_max"
        )
    return k_max


def _search_k_max(config: LinkConfig, k_max: int | None) -> int:
    """Grid length of the searches: k_max, by default ten coherence times.

    An attached memory caps it, given or not, at its lifetime in rounds: a
    stored pair cannot be delivered later than that.
    """
    t = config.transducer
    t_coh = config.qubit.t_coh_us
    if k_max is None:
        if math.isinf(t_coh):
            raise ConfigError(
                "t_coh is infinite: the search grid is unbounded, pass k_max explicitly"
            )
        k_max = _whole(10.0 * t_coh / t.t_rep_us, math.ceil)
    if config.memory is not None:
        lifetime_rounds = config.memory.lifetime_us / t.t_rep_us
        k_max = min(k_max, _whole(lifetime_rounds, math.floor))
    return _checked_k_max(k_max)


def delivered_fidelity(link: Link) -> LinkMetrics:
    """Full link analytics at the policy's delivery time.

    p_her and eta_link refer to a single channel; p_success and f_del account
    for the policy's n_parallel channels racing for the first herald.
    """
    c = link.config
    t_rep = c.transducer.t_rep_us
    p_success, f_del = delivery_point(
        link.p_her,
        link.f_her,
        c.policy.t_del_us,
        t_rep,
        c.qubit.t_coh_us,
        c.policy.n_parallel,
    )
    return LinkMetrics(
        p_her=link.p_her,
        i_prot=link.formula.i_prot,
        i_th=link.formula.i_th,
        f_her=link.f_her,
        eta_link=c.qubit.t_coh_us * link.p_her / t_rep,
        p_success=p_success,
        f_del=f_del,
    )


def _breakdown(link: Link, p_success: np.ndarray, f_del: np.ndarray) -> dict:
    """Split 1 - f_del into its four sources at each (p_success, f_del) point.

    protocol + thermal make up the heralded-state infidelity; decoherence is
    the decay of heralded states while stored; fallback is the mass of trials
    that time out and deliver the classical pair. Components sum to 1 - f_del
    exactly (for f_her < 0.5 the heralded terms are rescaled onto the 0.5
    fallback budget so the identity still holds).
    """
    f_her, i_prot = link.f_her, link.formula.i_prot
    i_th = link.formula.i_th
    if link.config.policy.fidelity_model is FidelityModel.THERMAL_HALF:
        i_th = i_th / 2.0
    ones = np.ones_like(f_del)
    if f_her >= 0.5:
        # recover S from f_del rather than recomputing the sum
        s = (f_del - 0.5) / (f_her - 0.5) if f_her > 0.5 else 0.0 * ones
        decoherence = (f_her - 0.5) * (p_success - s)
        fallback = (f_her - 0.5) * (1.0 - p_success)
    else:
        scale = 0.5 / (i_prot + i_th)
        i_prot, i_th = i_prot * scale, i_th * scale
        decoherence = fallback = 0.0 * ones
    return {
        "protocol": i_prot * ones,
        "thermal": i_th * ones,
        "decoherence": decoherence,
        "fallback": fallback,
        "total": 1.0 - f_del,
    }


def infidelity_breakdown(link: Link) -> dict:
    """Split 1 - f_del at the policy's t_del into its four sources.

    The breakdown of infidelity_breakdown_curve, at the one delivery point.
    """
    m = delivered_fidelity(link)
    parts = _breakdown(link, np.asarray([m.p_success]), np.asarray([m.f_del]))
    return {name: float(value[0]) for name, value in parts.items()}


def delivery_curve(link: Link, k_max: int | None = None) -> DeliveryCurve:
    """Evaluate p_success and f_del over the grid t_del = k * t_rep.

    Default grid covers at least 1000 points and twice the policy's t_del,
    bounded by ten coherence times (past which f_del is flat at 0.5) and
    the memory lifetime. An explicit k_max is taken as given, past the
    memory lifetime too.
    """
    c = link.config
    if k_max is None:
        k_policy = math.floor(c.policy.t_del_us / c.transducer.t_rep_us)
        k_max = min(_search_k_max(c, None), max(1000, 2 * k_policy))
    else:
        k_max = _checked_k_max(k_max)
    t_grid, p_success, f_del = _grid(link, k_max)
    return DeliveryCurve(t_del_us=t_grid, p_success=p_success, f_del=f_del)


def infidelity_breakdown_curve(
    link: Link, curve: DeliveryCurve
) -> tuple[np.ndarray, dict]:
    """infidelity_breakdown evaluated along a delivery_curve of the link.

    Returns (t_del_us grid, dict of component arrays keyed like
    infidelity_breakdown). Component arrays sum to `total` exactly.
    """
    return curve.t_del_us, _breakdown(link, curve.p_success, curve.f_del)


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


def optimal_delivery_time(link: Link, k_max: int | None = None) -> tuple[float, float]:
    """Exact discrete argmax of f_del over t_del = k * t_rep.

    The policy's own t_del_us is ignored. Searches k in [1, k_max], default
    k_max = ceil(10 T_coh / t_rep); an attached memory caps k_max, given or
    not, at its lifetime. Ties break toward the smaller t_del.

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
    if link.p_her <= 0.0:
        raise NoOptimumError("p_her = 0: no herald can ever arrive")
    k_max = _search_k_max(link.config, k_max)
    t_rep = link.config.transducer.t_rep_us
    q, d = _link_herald_and_decay(link)
    gain = max(link.f_her - 0.5, 0.0)

    def f_del_at(k):
        return _f_del(q, d, gain, np.asarray(k, dtype=float))[1]

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


def min_time_to_fidelity(link: Link, target: float, k_max: int | None = None) -> float:
    """Smallest grid t_del with f_del >= target.

    The grid is that of optimal_delivery_time, memory lifetime cap included.
    Raises UnattainableError when even the optimal delivery time falls short,
    and ModelDomainError for targets outside (0.5, 1).
    """
    if not (0.5 < target < 1.0):
        raise ModelDomainError(f"target fidelity {target} outside (0.5, 1)")
    t_grid, _, f_del = _grid(link, _search_k_max(link.config, k_max))
    hits = np.nonzero(f_del >= target)[0]
    if hits.size == 0:
        raise UnattainableError(
            f"target fidelity {target} unattainable: best f_del is {f_del.max():.6f}"
        )
    return float(t_grid[hits[0]])
