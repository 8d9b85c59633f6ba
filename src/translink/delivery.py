"""On-demand delivery model: repeated heralding attempts, storage decay, timeout.

Each round (every t_rep) all N parallel channels attempt entanglement; the
first herald wins and the state sits in the storage qubit until the agreed
delivery time t_del, decaying toward fidelity 1/2 with time constant T_coh.
If no herald arrives within K = floor(t_del/t_rep) rounds, a classical
anti-correlated pair of fidelity exactly 1/2 is delivered instead, so
delivery itself always succeeds (p_del = 1).

One evaluator, in log space, serves every model. In a round no channel
heralds with probability e^a, a = N log1p(-p_herald), and a stored state
keeps e^b of its excess fidelity, b = -t_rep/T_coh. Then

    q            = -expm1(a)
    p_success(k) = -expm1(k a)
    S(k)         = sum_{j=1..k} e^((j-1) a) q e^((k-j) b)
                 = q e^((k-1) m) expm1(k x) / expm1(x),  m = max(a, b), x = -|a - b|
    F_del        = 0.5 + (F_her - 0.5) * e^(-rem/T_coh) * S(K),  rem = t_del - K t_rep

and S peaks at the real round count k* = log1p((b - a)/a) / (a - b), with
the limit -1/a at a = b. No power of a base near 1 is formed and no two
nearly equal terms are subtracted, so each quantity keeps its relative
precision for any p_her in (0, 1] and any T_coh (Goldberg, ACM Comput.
Surv. 23, 1991; Higham, Accuracy and Stability of Numerical Algorithms,
2002, ch. 1, on (e^x - 1)/x). Every point, a single one too, goes through
numpy: its exp and expm1 need not equal the math module's to the last bit.

Each rule is written once. _at evaluates a and S at the policy's width,
for the policy point and the grid's rows alike. _f_del forms
F_del = 0.5 + gain s, gain = max(F_her - 0.5, 0), from the decay-weighted
success mass s, for the point, the grid, the optimum's searches and the
Monte Carlo's per-round table.
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

    # properties, not fields, so that dataclasses.replace cannot leave them stale
    @property
    def k_rounds(self) -> int:
        """K = floor(t_del/t_rep), the rounds in which a herald can arrive."""
        return math.floor(self.config.policy.t_del_us / self.config.transducer.t_rep_us)

    @property
    def gain(self) -> float:
        """max(f_her - 1/2, 0): what a herald adds to the fallback's fidelity 1/2."""
        return max(self.f_her - 0.5, 0.0)


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


# a and b are floored here, so that -inf (p_her = 1, or a T_coh so short
# that t_rep/T_coh overflows) stays a number: (k - 1) m is 0 at k = 1 and x
# is never inf - inf. Below -746 every exp is 0 and every expm1 -1, so no
# value moves.
_FLOOR = -1e4
# x is clamped to [_X_SAT, _X_TOP]. From -40 down expm1 is -1 to the last
# bit, so the floor moves no value. At the top, x = 0 (a = b) becomes the
# smallest subnormal, where expm1(k x) = k x exactly and the ratio is k,
# its limit.
_X_SAT = -40.0
_X_TOP = -5e-324
# Below this exponent exp is under 3.3e-308, into the subnormals, where numpy
# takes a slow path: 3 to 10 ns an element against about 1. S is then
# within 3e-308 k of 0, and is written as 0 without calling exp.
_EXP_MIN = -708.0


def _law(link: Link, widths) -> tuple:
    """(a, b, law): the evaluator's inputs at each width of `widths`, an int
    or an array.

    a = N log1p(-p_her) has the shape of widths and b = -t_rep/T_coh is a
    float, both floored at _FLOOR; an infinite T_coh gives b = -0.0. law
    stacks the rows (q, m, x, expm1(x)) that S reads, a column per width.
    """
    c = link.config
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf
        a = np.maximum(np.multiply(widths, np.log1p(-link.p_her), dtype=float), _FLOOR)
    b = max(-c.transducer.t_rep_us / c.qubit.t_coh_us, _FLOOR)
    x = np.minimum(np.maximum(-np.abs(a - b), _X_SAT), _X_TOP)
    return a, b, np.array([-np.expm1(a), np.maximum(a, b), x, np.expm1(x)])


def _decay_mass(law: np.ndarray, k: np.ndarray) -> np.ndarray:
    """S at round counts k, broadcast against the columns of law.

    S is the sum over herald rounds of P(herald at round j) times the decay
    factor accumulated from round j to round k. S(1) = q exactly.
    """
    q, m, x, expm1_x = law
    # k has the shape of the result, so S is built in place in two buffers
    exponent = np.subtract(k, 1.0)
    exponent *= m
    s = np.zeros_like(exponent)
    np.exp(exponent, out=s, where=exponent >= _EXP_MIN)
    ratio = np.expm1(np.multiply(k, x, out=exponent), out=exponent)
    ratio /= expm1_x
    s *= ratio
    s *= q
    return s


def _checked_k_max(k_max, limit: int = 2**53) -> int:
    """k_max, checked against limit: by default 2**53, the last round count a
    float holds exactly."""
    if k_max < 1:
        raise ConfigError("k_max must be >= 1")
    if k_max > limit:
        raise ConfigError(f"k_max of {k_max} rounds exceeds {limit}; pass a smaller k_max")
    return k_max


def _search_k_max(config: LinkConfig, k_max: int | None) -> int:
    """Last round of the searches: k_max, by default ten coherence times,
    at most 2**53 (see _checked_k_max), so any T_coh, an infinite one too,
    has a range.

    An attached memory caps it, given or not, at its lifetime in rounds: a
    stored pair cannot be delivered later than that. It is not yet checked,
    so that delivery_curve can cap it to its grid first.
    """
    t = config.transducer
    if k_max is None:
        k_max = math.ceil(min(10.0 * config.qubit.t_coh_us / t.t_rep_us, 2**53))
    if config.memory is not None:
        lifetime_rounds = config.memory.lifetime_us / t.t_rep_us
        if lifetime_rounds < k_max:  # an infinite lifetime caps nothing
            k_max = math.floor(lifetime_rounds)
    return k_max


def _f_del(link: Link, s):
    """f_del = 1/2 + gain s, from the decay-weighted success mass s."""
    return 0.5 + link.gain * s


def _at(link: Link, k=None) -> tuple:
    """(k a, s) at the policy's width: at the round counts k, an array, or
    when k is None at the policy's t_del, k = [K] with K = link.k_rounds.

    s is the decay-weighted success mass S(k). At the policy's t_del the
    state decays over the K rounds and then for the rest of t_del, so
    s = e^(-rem/T_coh) S(K). At a t_del on the grid that factor is
    exp(-0.0) = 1, and the point equals the grid's row K to the last bit.
    """
    c = link.config
    a, _, law = _law(link, c.policy.n_parallel)
    if k is not None:
        return k * a, _decay_mass(law, k)
    # validate's t_del >= t_rep makes k_rounds >= 1
    k = np.array([link.k_rounds], dtype=float)
    rem = c.policy.t_del_us - link.k_rounds * c.transducer.t_rep_us
    return k * a, np.exp(-rem / c.qubit.t_coh_us) * _decay_mass(law, k)


def delivered_fidelity(link: Link) -> LinkMetrics:
    """Full link analytics at the policy's delivery time.

    p_her and eta_link refer to a single channel; p_success and f_del account
    for the policy's n_parallel channels racing for the first herald. A
    heralded state below the fallback fidelity 1/2 would never be preferred
    over it, so f_her < 1/2 gives f_del = 1/2.
    """
    c = link.config
    ka, s = _at(link)
    return LinkMetrics(
        p_her=link.p_her,
        i_prot=link.formula.i_prot,
        i_th=link.formula.i_th,
        f_her=link.f_her,
        eta_link=c.qubit.t_coh_us * link.p_her / c.transducer.t_rep_us,
        p_success=float(-np.expm1(ka)[0]),
        f_del=float(_f_del(link, s)[0]),
    )


def _breakdown(link: Link, ka, p_success, s, f_del) -> dict:
    """Split 1 - f_del into its four sources at each point of the evaluator.

    ka is k a there, the log of the chance r^k that no round of k heralds,
    and s the decay-weighted success mass, f_del = 1/2 + gain s.
    protocol + thermal make up the heralded-state infidelity; decoherence,
    gain (p_success - s), is the decay of heralded states while stored,
    exactly 0 at t_del = t_rep; fallback, gain r^k = gain e^(k a), is the
    mass of trials that time out and deliver the classical pair. It is
    formed from k a, not as gain (1 - p_success), whose 1 - p_success loses
    every digit once r^k is near the rounding error of p_success. Components
    sum to 1 - f_del up to rounding (for f_her < 0.5 the heralded terms are
    rescaled onto the 0.5 fallback budget so the identity still holds).
    """
    gain, i_prot = link.gain, link.formula.i_prot
    i_th = link.formula.i_th * link.config.policy.fidelity_model.thermal_weight
    if gain > 0.0:
        decoherence = gain * (p_success - s)
        # below -746 exp is 0 to the last bit, and numpy's slow path there
        # takes 10 ns or more an element; the 0 is written without it
        fallback = gain * np.exp(ka, out=np.zeros_like(ka), where=ka >= -746.0)
    else:
        decoherence = fallback = np.zeros_like(f_del)
    if link.f_her < 0.5:
        scale = 0.5 / (i_prot + i_th)
        i_prot, i_th = i_prot * scale, i_th * scale
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
    ka, s = _at(link)
    parts = _breakdown(link, ka, -np.expm1(ka), s, _f_del(link, s))
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
        # the cap comes before the grid's check, so that a long coherence
        # time needs no more than this grid
        k_max = min(_search_k_max(c, None), max(1000, 2 * link.k_rounds))
    k = np.arange(1, _checked_k_max(k_max, MAX_GRID_POINTS) + 1, dtype=float)
    ka, s = _at(link, k)
    with np.errstate(over="ignore"):  # past the float range, a t_rep near it gives inf
        t_del = k * c.transducer.t_rep_us
    return DeliveryCurve(t_del, -np.expm1(ka), _f_del(link, s))


def infidelity_breakdown_curve(
    link: Link, curve: DeliveryCurve
) -> tuple[np.ndarray, dict]:
    """infidelity_breakdown evaluated along a delivery_curve of the link.

    Returns (t_del_us grid, dict of component arrays keyed like
    infidelity_breakdown). Component arrays sum to `total` up to rounding.
    The decay-weighted success mass S comes from the evaluator again, on
    the curve's rounds k = 1..K, not from f_del. The constant `protocol`
    and `thermal` components are read-only broadcast views of one value;
    copy them before writing into them.
    """
    ka, s = _at(link, np.arange(1, curve.t_del_us.size + 1, dtype=float))
    return curve.t_del_us, _breakdown(link, ka, curve.p_success, s, curve.f_del)


def _peak_rounds(a: np.ndarray, b: float) -> np.ndarray:
    """Real round count k* at which S(k) peaks, one per entry of a.

    dS/dk = 0 where e^(k (a - b)) = b/a, so k* = log1p((b - a)/a)/(a - b),
    and -1/a where a = b. It is inf where S never turns down (b = -0.0, or
    p_her = 0) and at most 1 where S falls from the start.
    """
    with np.errstate(all="ignore"):  # b/a overflows where a is subnormal
        return np.where(a == b, -1.0 / a, np.log1p((b - a) / a) / (a - b))


def _first_reaching(link: Link, law, floor, low, k, f):
    """Move each lane's k down to the first round in [low, k] whose f_del reaches floor.

    A lane is one column of law, at one width of the link. f_del must not
    decrease on [low, k] and must reach floor at k, where it is f; k and f
    are updated in place. All lanes bisect in lockstep, log2(k) + 1 steps
    at most.
    """
    while True:
        lanes = np.flatnonzero(low < k)
        if lanes.size == 0:
            return
        mid = (low[lanes] + k[lanes]) // 2
        values = _f_del(link, _decay_mass(law[:, lanes], mid))
        hit = values >= floor[lanes]
        k[lanes] = np.where(hit, mid, k[lanes])
        f[lanes] = np.where(hit, values, f[lanes])
        low[lanes] = np.where(hit, low[lanes], mid + 1)


def _optimum(link: Link, k_max: int | None, a: np.ndarray, b: float, law: np.ndarray):
    """(k*, f*): per column of law, with a its entry of a, the first argmax
    k* of f_del(k) = _f_del(link, S(k)) on [1, k_max], and f* = f_del(k*).
    See optimal_delivery_time.
    """
    k_max = _checked_k_max(_search_k_max(link.config, k_max))
    peak = np.clip(_peak_rounds(a, b), 1.0, float(k_max))
    lo = np.maximum(np.floor(peak) - 2, 1).astype(np.int64)
    hi = np.minimum(np.ceil(peak) + 2, k_max).astype(np.int64)
    # the window lo..hi, at most 6 rounds, as one block; its first maximum
    window = lo[:, None] + np.arange(6)
    values = _f_del(link, _decay_mass(law[:, :, None], window))
    values[window > hi[:, None]] = -np.inf
    best = np.argmax(values, axis=1)
    rows = np.arange(len(a))
    k_best, f_best = window[rows, best], values[rows, best]
    # where the window's left end is best, bisect [1, lo] for the first k
    # that reaches the same value
    low = np.where(best == 0, 1, k_best)
    _first_reaching(link, law, f_best.copy(), low, k_best, f_best)
    return k_best, f_best


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
    integer >= 1 raises ConfigError. The evaluator reads a width only
    through q, m and the clamped x, so that pass solves each run of
    ascending widths with one (q, m, x) once and scatters its optimum back
    to every width of the run: wide links share q = 1 and m = b, and their
    x reaches its clamp.

    f_del(k) = 1/2 + (f_her - 1/2) S(k) rises to one peak at the real k* of
    _peak_rounds and falls after it. So f_del is evaluated, exactly as
    delivery_curve evaluates it, only at the integers from floor(k*) - 2 to
    ceil(k*) + 2, with k* clipped to [1, k_max]. No decay (infinite T_coh)
    gives k* = inf, and so k_max; q = 1 or a T_coh far below t_rep give a
    k* at most 1.

    When the best point of that window is its left end, f_del may have
    reached the same float value at smaller k: with no decay, 1 - 0.5^k is
    exactly 1.0 from k = 54 on, with q near 1e-10 the float rise can end
    well before k*, and for f_her <= 1/2 f_del is flat at 1/2 (the answer
    is k = 1). _first_reaching bisects the non-decreasing values left of
    the window for the first such k. Cost: six points per distinct lane,
    plus at most log2(k_max) + 1 in that case, instead of a k_max-point
    grid.
    """
    if link.p_her <= 0.0:
        raise NoOptimumError("p_her = 0: no herald can ever arrive")
    widths = np.asarray(link.config.policy.n_parallel if n_parallel is None else n_parallel)
    if widths.dtype.kind not in "iu" or (widths < 1).any():
        raise ConfigError("n_parallel: every width must be an integer >= 1")
    t_rep = link.config.transducer.t_rep_us
    if widths.ndim == 0:
        k_best, f_best = _optimum(link, k_max, *_law(link, widths.reshape(1)))
        return float(k_best[0]) * t_rep, float(f_best[0])
    # k_max, b and the gain are the same at every width. Ascending widths
    # that share (q, m, x) share the evaluator's values, and so the optimum
    n, where = np.unique(widths, return_inverse=True)
    a, b, law = _law(link, n)
    first = np.ones(n.size, dtype=bool)
    first[1:] = (law[:3, 1:] != law[:3, :-1]).any(axis=0)
    k_best, f_best = _optimum(link, k_max, a[first], b, law[:, first])
    lane = (np.cumsum(first) - 1)[where]
    with np.errstate(over="ignore"):  # past the float range, a t_rep near it gives inf
        t_del = k_best[lane] * t_rep
    return t_del.reshape(widths.shape), f_best[lane].reshape(widths.shape)


def min_time_to_fidelity(link: Link, target: float, k_max: int | None = None) -> float:
    """Smallest t_del = k * t_rep, k in optimal_delivery_time's range, with f_del >= target.

    f_del does not decrease up to the optimum k*, so the optimum's pass and
    a bisection of [1, k*] find it, with no grid. Raises UnattainableError
    when f_del(k*) falls short (p_her = 0 and f_her <= 1/2 give 1/2), and
    ModelDomainError for targets outside (0.5, 1).
    """
    if not (0.5 < target < 1.0):
        raise ModelDomainError(f"target fidelity {target} outside (0.5, 1)")
    a, b, law = _law(link, np.reshape(link.config.policy.n_parallel, -1))
    k_best, f_best = _optimum(link, k_max, a, b, law)
    if f_best[0] < target:
        raise UnattainableError(
            f"target fidelity {target} unattainable: best f_del is {f_best[0]:.6f}"
        )
    _first_reaching(link, law, np.asarray([target]), np.ones_like(k_best), k_best, f_best)
    return float(k_best[0]) * link.config.transducer.t_rep_us
