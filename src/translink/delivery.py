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


def _success_decay(q, k: np.ndarray, d: float):
    """Vectorized p_success and decay-weighted success mass S at round counts k.

    S is the sum over herald rounds of P(herald at round j) times the decay
    factor accumulated from round j to round k. q is one herald probability,
    or one per entry of k.
    """
    r = 1.0 - q
    rk = np.power(r, k, dtype=float)
    # core = (r^k - d^k)/(r - d), built in place: the optimum evaluates a
    # block of 6 rounds per width, and every full-size temporary adds to its
    # peak memory
    core = rk - np.power(d, k, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        core /= r - d
    # degenerate limit (r^k - d^k)/(r - d) -> k * m^(k-1) where |r - d| < 1e-9
    m = 0.5 * (r + d)
    np.copyto(core, k * np.power(m, k - 1, dtype=float), where=np.abs(r - d) < 1e-9)
    return 1.0 - rk, q * core


def _f_del(q, d: float, gain: float, k: np.ndarray, rem_decay: float = 1.0):
    """(p_success, f_del) after k rounds, k an array, gain = max(f_her - 1/2, 0).

    rem_decay is the storage decay between the last round and t_del. The
    grid points have none, and gain * 1.0 is exact, so a grid point and a
    delivery time on it give the same float.
    """
    p_success, s = _success_decay(q, k, d)
    return p_success, 0.5 + gain * rem_decay * s


def _herald_and_decay(link: Link, widths: np.ndarray | None = None):
    """Per-round herald probability q and storage decay d = exp(-t_rep/T_coh).

    q = 1 - (1 - p_her)^n over n channels: a float at the policy's
    n_parallel, or one entry per width of `widths`. Each is taken with
    Python's float **, not numpy's power, whose last bit can differ and
    move the optimum. An infinite T_coh gives d = exp(-0.0) = 1 exactly.
    """
    c = link.config
    d = math.exp(-c.transducer.t_rep_us / c.qubit.t_coh_us)
    miss = 1.0 - link.p_her
    if widths is None:
        return 1.0 - miss**c.policy.n_parallel, d
    return np.array([1.0 - miss**n for n in widths.ravel().tolist()]), d


def _grid(link: Link, k_max: int):
    k = np.arange(1, _checked_k_max(k_max) + 1, dtype=float)
    q, d = _herald_and_decay(link)
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


def _search_k_max(config: LinkConfig, k_max: int | None) -> int | float:
    """Grid length of the searches: k_max, by default ten coherence times.

    An attached memory caps it, given or not, at its lifetime in rounds: a
    stored pair cannot be delivered later than that. The length is not yet
    checked against MAX_GRID_POINTS, so that a caller can cap it further
    first.
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
    return k_max


def delivered_fidelity(link: Link) -> LinkMetrics:
    """Full link analytics at the policy's delivery time.

    p_her and eta_link refer to a single channel; p_success and f_del account
    for the policy's n_parallel channels racing for the first herald. The
    state decays over the K = floor(t_del/t_rep) rounds of the grid and
    then for the rest of t_del. A heralded state below the fallback
    fidelity 1/2 would never be preferred over it, so f_her < 1/2 gives
    f_del = 1/2.
    """
    c = link.config
    t_rep = c.transducer.t_rep_us
    t_del = c.policy.t_del_us
    # validate's t_del >= t_rep makes k_rounds >= 1
    k_rounds = math.floor(t_del / t_rep)
    q, d = _herald_and_decay(link)
    rem_decay = math.exp(-(t_del - k_rounds * t_rep) / c.qubit.t_coh_us)
    p_success, f_del = _f_del(
        q, d, max(link.f_her - 0.5, 0.0), np.asarray([k_rounds], dtype=float), rem_decay
    )
    return LinkMetrics(
        p_her=link.p_her,
        i_prot=link.formula.i_prot,
        i_th=link.formula.i_th,
        f_her=link.f_her,
        eta_link=c.qubit.t_coh_us * link.p_her / t_rep,
        p_success=float(p_success[0]),
        f_del=float(f_del[0]),
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
        # the cap comes before _grid's check, so that a long coherence time
        # needs no more than this grid
        k_max = min(_search_k_max(c, None), max(1000, 2 * k_policy))
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


def _peak_rounds(r: np.ndarray, d: float) -> np.ndarray:
    """Real round count k at which S(k) = q (r^k - d^k)/(r - d) peaks, r = 1 - q.

    dS/dk = 0 where r^k ln r = d^k ln d, so k* = ln(ln d / ln r) / ln(r/d).
    Gives inf where S never turns down and 1 where it falls from the start.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        peak = np.log(np.log(d) / np.log(r)) / np.log(r / d)
        # the degenerate branch of _success_decay, S = q k m^(k-1)
        m = 0.5 * (r + d)
        degenerate = np.where(m > 0.0, -1.0 / np.log(m), 1.0)
    degenerate = np.where(m >= 1.0, np.inf, degenerate)
    # every round heralds, or a stored state is lost within one round
    peak = np.where((r == 0.0) | (d == 0.0), 1.0, peak)
    # no decay, or q below float resolution: S = q (1 - d^k)/(1 - d) rises
    peak = np.where((r == 1.0) | (d == 1.0), np.inf, peak)
    return np.where(np.abs(r - d) < 1e-9, degenerate, peak)


def optimal_delivery_time(
    link: Link, k_max: int | None = None, *, n_parallel: int | np.ndarray | None = None
) -> tuple:
    """Exact discrete argmax of f_del over t_del = k * t_rep.

    The policy's own t_del_us is ignored. Searches k in [1, k_max], default
    k_max = ceil(10 T_coh / t_rep); an attached memory caps k_max, given or
    not, at its lifetime. Ties break toward the smaller t_del.

    Returns (t_del, f_del) as floats at the policy's n_parallel. Given
    n_parallel, an array of widths, it returns the two arrays of the link
    at each of those widths instead, all found in one pass of array
    operations; an int n_parallel gives floats again.

    f_del(k) = 1/2 + (f_her - 1/2) S(k) with S(k) = q (r^k - d^k)/(r - d), which
    rises to one peak at the real k* of _peak_rounds and falls after it. So
    f_del is evaluated, exactly as delivery_curve evaluates it, only at the
    integers from floor(k*) - 2 to ceil(k*) + 2, with k* clipped to
    [1, k_max]. q = 1 - (1 - p_her)^N is taken with Python's float ** for
    each width, as delivery_curve takes it, not with numpy's power, whose
    last bit can differ and move the optimum. Special cases, all masked
    per width:

    - q = 1 (r = 0) or d = 0: S falls from k = 1.
    - |r - d| < 1e-9: S = q k m^(k-1) with m = (r + d)/2 peaks at -1/ln m.
    - d = 1 (infinite T_coh) or r = 1: S never falls, so k* = k_max.

    When the best point of that window is its left end, f_del may have
    reached the same float value at smaller k: with d = 1, 1 - 0.5^k is
    exactly 1.0 from k = 54 on, with q near 1e-10 the float rise can end
    well before k*, and for f_her <= 1/2 f_del is flat at 1/2 (the answer
    is k = 1). The first such k is found by bisection over the
    non-decreasing values left of the peak, run for all widths in lockstep.
    Cost: six points per width, plus at most log2(k_max) in that case,
    instead of the k_max-point grid.
    """
    if link.p_her <= 0.0:
        raise NoOptimumError("p_her = 0: no herald can ever arrive")
    widths = np.asarray(link.config.policy.n_parallel if n_parallel is None else n_parallel)
    k_max = _checked_k_max(_search_k_max(link.config, k_max))
    t_rep = link.config.transducer.t_rep_us
    q, d = _herald_and_decay(link, widths)
    gain = max(link.f_her - 0.5, 0.0)

    def f_del_at(q, k):
        return _f_del(q, d, gain, k)[1]

    peak = np.clip(_peak_rounds(1.0 - q, d), 1.0, float(k_max))
    lo = np.maximum(np.floor(peak) - 2, 1).astype(np.int64)
    hi = np.minimum(np.ceil(peak) + 2, k_max).astype(np.int64)
    # the window lo..hi, at most 6 rounds, as one block; its first maximum
    window = lo[:, None] + np.arange(6)
    values = f_del_at(q[:, None], window)
    values[window > hi[:, None]] = -np.inf
    best = np.argmax(values, axis=1)
    rows = np.arange(len(q))
    k_best, f_best = window[rows, best], values[rows, best]
    # where the window's left end is best, bisect [1, lo] for the first k
    # that reaches the same value
    left_end = best == 0
    floor_value = f_best.copy()
    low = np.ones_like(k_best)
    while True:
        lanes = np.flatnonzero(left_end & (low < k_best))
        if lanes.size == 0:
            break
        mid = (low[lanes] + k_best[lanes]) // 2
        values = f_del_at(q[lanes], mid)
        hit = values >= floor_value[lanes]
        k_best[lanes] = np.where(hit, mid, k_best[lanes])
        f_best[lanes] = np.where(hit, values, f_best[lanes])
        low[lanes] = np.where(hit, low[lanes], mid + 1)
    if widths.ndim == 0:
        return float(k_best[0] * t_rep), float(f_best[0])
    return (k_best * t_rep).reshape(widths.shape), f_best.reshape(widths.shape)


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
