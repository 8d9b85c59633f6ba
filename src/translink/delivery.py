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
On a long grid r^k and d^k underflow. Where k log2(base) < -1100 the exact
power is below 2^-1100, far under the 2^-1075 below which a double rounds
to +0.0, so _power writes the 0 itself instead of sending the point
through pow's slow underflow path. Its results equal np.power's bit for bit.
"""

from __future__ import annotations

import math

from ._numpy import np
from .errors import (
    ConfigError,
    ModelDomainError,
    NoOptimumError,
    UnattainableError,
)
from .params import (
    MAX_GRID_POINTS,
    LinkConfig,
    LinkMetrics,
    Record,
    raise_violations,
    validate,
)
from .protocols import ProtocolAnalytics, analyze_protocol, heralded_fidelity


class Link(Record):
    """A link resolved once for every model that runs it.

    formula holds the closed-form protocol analytics. p_her is the herald
    probability per attempt and channel that the models use: the formula
    value, or config.p_her_reference where that replaces it. f_her is the
    heralded fidelity under the policy's fidelity model.
    """

    config: LinkConfig
    formula: ProtocolAnalytics
    p_her: float
    f_her: float


def resolve(config: LinkConfig) -> Link:
    """Validate a link and evaluate its protocol analytics, once.

    The config's p_her_reference, when set, replaces the formula value in
    every model; the infidelities and f_her are unaffected.
    """
    raise_violations("link config", validate(config))
    formula = analyze_protocol(config.transducer, config.protocol, config.memory)
    f_her = heralded_fidelity(formula, config.policy.fidelity_model)
    p_her = formula.p_her if config.p_her_reference is None else config.p_her_reference
    return Link(config=config, formula=formula, p_her=p_her, f_her=f_her)


class DeliveryCurve(Record):
    """f_del and p_success on the grid t_del = k * t_rep, k = 1..K."""

    t_del_us: np.ndarray
    p_success: np.ndarray
    f_del: np.ndarray


# Past this k log2(base) the power is +0.0 (see _power). numpy's pow would
# get there by a slow underflow path, 100-150 ns an element against about 6.
_UNDERFLOW_LOG2 = -1100.0
# Arrays smaller than this go straight to pow: their underflow costs less
# than the mask's own handful of numpy calls, which the optimum's bisection
# would pay at every step.
_POWER_MASK_MIN = 64
# Where |r - d| is below this, S takes its degenerate limit q k m^(k-1),
# m = (r + d)/2, in place of the cancelling difference quotient.
_DEGENERATE_GAP = 1e-9


def _power(base, k: np.ndarray) -> np.ndarray:
    """np.power(base, k, dtype=float), bit for bit, k an array of the result's shape.

    Where k log2(base) < -1100 the exact power is below 2**-1100, 25 binades
    under the 2**-1075 below which a double rounds to +0.0, so it is +0.0
    without calling pow; base = 0 gives log2 = -inf and so 0, base = 1
    stays live. The mask is built in the output buffer, which the live
    entries then overwrite with pow.
    """
    if k.size < _POWER_MASK_MIN:
        return np.power(base, k, dtype=float)
    with np.errstate(divide="ignore"):  # log2(0) = -inf
        out = np.multiply(np.log2(base), k, dtype=float)
    live = out >= _UNDERFLOW_LOG2
    np.power(base, k, out=out, where=live, dtype=float)
    np.copyto(out, 0.0, where=np.logical_not(live, out=live))
    return out


def _success_decay(q, k: np.ndarray, d: float):
    """Vectorized p_success and decay-weighted success mass S at round counts k.

    S is the sum over herald rounds of P(herald at round j) times the decay
    factor accumulated from round j to round k. q is one herald probability,
    or one per entry of k.
    """
    r = 1.0 - q
    rk = _power(r, k)
    # core = (r^k - d^k)/(r - d), built in place: the optimum evaluates a
    # block of 6 rounds per distinct q, and every full-size temporary adds
    # to its peak memory
    core = rk - _power(d, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        core /= r - d
    # degenerate limit (r^k - d^k)/(r - d) -> k * m^(k-1), evaluated only
    # when some entry is degenerate
    degenerate = np.abs(r - d) < _DEGENERATE_GAP
    if np.any(degenerate):
        m = 0.5 * (r + d)
        np.copyto(core, k * np.power(m, k - 1, dtype=float), where=degenerate)
    return 1.0 - rk, q * core


def _f_del(q, d: float, gain: float, k: np.ndarray, rem_decay: float = 1.0):
    """(p_success, f_del) after k rounds, k an array, gain = max(f_her - 1/2, 0).

    rem_decay is the storage decay between the last round and t_del. The
    grid points have none, and gain * 1.0 is exact, so a grid point and a
    delivery time on it give the same float.
    """
    p_success, s = _success_decay(q, k, d)
    return p_success, 0.5 + gain * rem_decay * s


def _herald_and_decay(link: Link, widths):
    """Per-round herald probability q and storage decay d = exp(-t_rep/T_coh).

    q = 1 - (1 - p_her)^n over n channels, one entry per width of `widths`
    (an int or an array). Each is taken with Python's float **, not numpy's
    power, whose last bit can differ and move the optimum. An infinite
    T_coh gives d = exp(-0.0) = 1 exactly.
    """
    c = link.config
    d = math.exp(-c.transducer.t_rep_us / c.qubit.t_coh_us)
    miss = 1.0 - link.p_her
    return np.array([1.0 - miss**n for n in np.ravel(widths).tolist()]), d


def _whole(x: float, rounding) -> int | float:
    """rounding(x) as an int; an infinite x, past any grid, stays a float."""
    return rounding(x) if math.isfinite(x) else x


def _checked_k_max(k_max, limit: int = 2**53) -> int:
    """k_max, checked against limit: by default 2**53, the last round count a
    float holds exactly."""
    if k_max < 1:
        raise ConfigError("k_max must be >= 1")
    if k_max > limit:
        raise ConfigError(f"k_max of {k_max} rounds exceeds {limit}; pass a smaller k_max")
    return k_max


def _search_k_max(config: LinkConfig, k_max: int | None) -> int | float:
    """Last round of the searches: k_max, by default ten coherence times.

    An attached memory caps it, given or not, at its lifetime in rounds: a
    stored pair cannot be delivered later than that. It is not yet checked,
    so that delivery_curve can cap it to its grid first.
    """
    t = config.transducer
    t_coh = config.qubit.t_coh_us
    if k_max is None:
        if math.isinf(t_coh):
            raise ConfigError(
                "t_coh is infinite: the search range is unbounded, pass k_max explicitly"
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
    q, d = _herald_and_decay(link, c.policy.n_parallel)
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
    i_th = link.formula.i_th * link.config.policy.fidelity_model.thermal_weight
    if f_her >= 0.5:
        # recover S from f_del rather than recomputing the sum
        s = (f_del - 0.5) / (f_her - 0.5) if f_her > 0.5 else np.zeros_like(f_del)
        decoherence = (f_her - 0.5) * (p_success - s)
        fallback = (f_her - 0.5) * (1.0 - p_success)
    else:
        scale = 0.5 / (i_prot + i_th)
        i_prot, i_th = i_prot * scale, i_th * scale
        decoherence = fallback = np.zeros_like(f_del)
    return {
        "protocol": np.broadcast_to(np.float64(i_prot), f_del.shape),
        "thermal": np.broadcast_to(np.float64(i_th), f_del.shape),
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
        # the cap comes before the grid's check, so that a long coherence
        # time needs no more than this grid
        k_max = min(_search_k_max(c, None), max(1000, 2 * k_policy))
    k = np.arange(1, _checked_k_max(k_max, MAX_GRID_POINTS) + 1, dtype=float)
    q, d = _herald_and_decay(link, c.policy.n_parallel)
    p_success, f_del = _f_del(q, d, max(link.f_her - 0.5, 0.0), k)
    return DeliveryCurve(k * c.transducer.t_rep_us, p_success, f_del)


def infidelity_breakdown_curve(
    link: Link, curve: DeliveryCurve
) -> tuple[np.ndarray, dict]:
    """infidelity_breakdown evaluated along a delivery_curve of the link.

    Returns (t_del_us grid, dict of component arrays keyed like
    infidelity_breakdown). Component arrays sum to `total` exactly. The
    constant `protocol` and `thermal` components are read-only broadcast
    views of one value; copy them before writing into them.
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
    return np.where(np.abs(r - d) < _DEGENERATE_GAP, degenerate, peak)


def _first_reaching(f_del_at, q, floor, low, k, f):
    """Move each lane's k down to the first round in [low, k] whose f_del reaches floor.

    A lane is one entry of q. f_del must not decrease on [low, k] and must
    reach floor at k, where it is f; k and f are updated in place. All
    lanes bisect in lockstep, log2(k) + 1 steps at most.
    """
    while True:
        lanes = np.flatnonzero(low < k)
        if lanes.size == 0:
            return
        mid = (low[lanes] + k[lanes]) // 2
        values = f_del_at(q[lanes], mid)
        hit = values >= floor[lanes]
        k[lanes] = np.where(hit, mid, k[lanes])
        f[lanes] = np.where(hit, values, f[lanes])
        low[lanes] = np.where(hit, low[lanes], mid + 1)


def _optimum(link: Link, k_max: int | None, q: np.ndarray, d: float):
    """(f_del_at, k*, f*): per herald probability of q, the first argmax k* of
    f_del(k) = f_del_at(q, k) on [1, k_max], and f* = f_del(k*). See
    optimal_delivery_time.
    """
    k_max = _checked_k_max(_search_k_max(link.config, k_max))
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
    low = np.where(best == 0, 1, k_best)
    _first_reaching(f_del_at, q, f_best.copy(), low, k_best, f_best)
    return f_del_at, k_best, f_best


def optimal_delivery_time(
    link: Link, k_max: int | None = None, *, n_parallel: int | np.ndarray | None = None
) -> tuple:
    """Exact discrete argmax of f_del over t_del = k * t_rep.

    The policy's own t_del_us is ignored. Searches k in [1, k_max], default
    k_max = ceil(10 T_coh / t_rep), at most 2**53; an attached memory caps
    k_max, given or not, at its lifetime. Ties break toward the smaller t_del.

    Returns (t_del, f_del) as floats at the policy's n_parallel. Given
    n_parallel, an array of widths, it returns the two arrays of the link
    at each of those widths instead, all found in one pass of array
    operations; an int n_parallel gives floats again. A width that is not an
    integer >= 1 raises ConfigError. The optimum depends on the width only
    through q, so that pass solves each distinct q once and scatters its
    optimum back to every width that has it: past a few thousand channels q
    rounds to 1.0, and every wider width shares it.

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
    is k = 1). _first_reaching bisects the non-decreasing values left of
    the window for the first such k. Cost: six points per distinct q, plus
    at most log2(k_max) + 1 in that case, instead of a k_max-point grid.
    """
    if link.p_her <= 0.0:
        raise NoOptimumError("p_her = 0: no herald can ever arrive")
    widths = np.asarray(link.config.policy.n_parallel if n_parallel is None else n_parallel)
    if widths.dtype.kind not in "iu" or (widths < 1).any():
        raise ConfigError("n_parallel: every width must be an integer >= 1")
    q, d = _herald_and_decay(link, widths)
    t_rep = link.config.transducer.t_rep_us
    if widths.ndim == 0:
        _, k_best, f_best = _optimum(link, k_max, q, d)
        return float(k_best[0] * t_rep), float(f_best[0])
    # k_max, d and the gain are the same at every width
    q, where = np.unique(q, return_inverse=True)
    _, k_best, f_best = _optimum(link, k_max, q, d)
    return (k_best[where] * t_rep).reshape(widths.shape), f_best[where].reshape(widths.shape)


def min_time_to_fidelity(link: Link, target: float, k_max: int | None = None) -> float:
    """Smallest t_del = k * t_rep, k in optimal_delivery_time's range, with f_del >= target.

    f_del does not decrease up to the optimum k*, so the optimum's pass and
    a bisection of [1, k*] find it, with no grid. Raises UnattainableError
    when f_del(k*) falls short (p_her = 0 and f_her <= 1/2 give 1/2), and
    ModelDomainError for targets outside (0.5, 1).
    """
    if not (0.5 < target < 1.0):
        raise ModelDomainError(f"target fidelity {target} outside (0.5, 1)")
    q, d = _herald_and_decay(link, link.config.policy.n_parallel)
    f_del_at, k_best, f_best = _optimum(link, k_max, q, d)
    if f_best[0] < target:
        raise UnattainableError(
            f"target fidelity {target} unattainable: best f_del is {f_best[0]:.6f}"
        )
    _first_reaching(f_del_at, q, np.asarray([target]), np.ones_like(k_best), k_best, f_best)
    return float(k_best[0] * link.config.transducer.t_rep_us)
