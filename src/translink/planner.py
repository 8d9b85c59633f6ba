"""Architecture-level resource arithmetic for multi-module processors.

Turns single-link analytics into module-scale tallies: how many links a
lattice-surgery boundary needs, how many transducer channels and
communication qubits that consumes, whether the totals fit a cryostat,
how classical circuit cutting compares against quantum links, and the
achievable (links, rate, fidelity) trade-off surface for a fixed channel
budget.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from ._numpy import np
from .delivery import (
    Link,
    delivered_fidelity,
    min_time_to_fidelity,
    optimal_delivery_time,
)
from .distillation import calibrated_distill
from .errors import ConfigError
from .params import (
    MAX_TRANSDUCERS_PER_MODULE,
    ArchitectureSpec,
    Record,
    raise_violations,
    validate_architecture,
)

# Link error (1 - f_del) below which lattice surgery across the link is
# believed to sit under the surface-code threshold.
LATTICE_SURGERY_LINK_ERROR_THRESHOLD = 0.1

# Practical per-cryostat envelopes (inclusive).
LINKS_ENVELOPE = (10, 100)
PER_LINK_ENVELOPE = (10, 100)
TOTAL_CHANNELS_ENVELOPE = (100, 10_000)

# Calibration anchors of the circuit-cutting comparison: classical cutting
# costs gamma_c^k executions with gamma_c = 10^(1/2); quantum links cost
# gamma_q(x)^k with log10(gamma_q) linear in the link infidelity x, pinned
# to gamma_q(0.10) = 10^(1/10) and break-even gamma_q(0.30) = gamma_c.
GAMMA_CLASSICAL = 10.0**0.5
_GAMMA_Q_SLOPE = 2.0
_GAMMA_Q_OFFSET = -0.1
CIRCUIT_CUT_BREAK_EVEN_INFIDELITY = 0.3

TRADEOFF_MAX_DISTILL_ROUNDS = 4

class PlanReport(Record):
    """lattice_surgery_plan's resource tally for one architecture and link."""

    architecture: str
    links_required: int
    transducers_per_link: int
    total_transducers: int
    feasible: bool
    limiting_factor: str
    speedup: float
    t_del_us: float
    min_t_del_us: float
    fidelity_at_t_del: float
    fidelity_met: bool
    link_error_below_threshold: bool


def edge_qubit_count(n_qubits: int) -> int:
    """Physical qubits along one edge of a square n-qubit patch."""
    if n_qubits < 1:
        raise ConfigError("n_qubits must be >= 1")
    root = math.isqrt(n_qubits)
    return root if root * root == n_qubits else root + 1


def _limiting_factor(total: int, budget: int, qubit_cap: int) -> tuple:
    """Feasibility verdict plus the constraint with the least slack.

    Each transducer needs its own communication qubit, so `total` counts both.
    Every constraint caps the same total, so the one with the highest
    utilization is the smallest cap (the first of equal ones), and the plan
    is feasible when the total is at most that cap. Both are exact integer
    comparisons, which no size overflows.
    """
    constraints = [
        ("transducer budget", budget),
        ("module channel ceiling", MAX_TRANSDUCERS_PER_MODULE),
        ("communication qubits", qubit_cap),
    ]
    name, cap = min(constraints, key=lambda item: item[1])
    return total <= cap, name


def _distilled(f_del: float, rounds: int) -> float:
    """f_del after `rounds` calibrated distillation rounds.

    Zero rounds, and an f_del at or below 1/2, which no round raises, leave
    it as it is without calling the map.
    """
    return calibrated_distill(f_del, rounds) if rounds > 0 and f_del > 0.5 else f_del


def _undistilled_target(target: float, rounds: int) -> float:
    """The least f_del that `rounds` calibrated rounds carry to target or above.

    Starts from the calibrated map's inverse, 1 - (1 - target) 10^(rounds/4);
    at or below 1/2 any distillable f_del will do. The inverse and the map
    need not round-trip in float, so the forward map confirms it, a float
    step at a time. The map does not decrease, so f_del reaches the result
    exactly when its distilled value reaches target.
    """
    if rounds == 0:
        return target
    f = max(1.0 - (1.0 - target) * 10.0 ** (rounds / 4.0), math.nextafter(0.5, 1.0))
    while _distilled(f, rounds) < target:
        f = math.nextafter(f, 1.0)
    while _distilled(math.nextafter(f, 0.0), rounds) >= target:
        f = math.nextafter(f, 0.0)
    return f


def lattice_surgery_plan(spec: ArchitectureSpec, link: Link) -> PlanReport:
    """Resource tally for clock-rate lattice surgery across module boundaries.

    Every edge qubit of the square patch needs its own link, and each link
    must deliver one pair per clock cycle. A link that natively delivers in
    t_del is sped up by parallelization alone, so the per-link channel count
    is n_parallel * ceil(t_del / clock) * 2**distill_rounds. The quotient
    is taken exactly, between the decimals that the config spells (the repr
    of each float): 0.9 / 0.3 is 3, and 3.0000000005 / 1 is 4. The rounds
    are credited too: the fidelity fields hold the delivered pair after
    distill_rounds calibrated rounds (see _distilled), and min_t_del_us is
    the first delivery time whose distilled f_del reaches the target.
    Raises UnattainableError (via min_time_to_fidelity, whose message names
    the f_del that the rounds need) when that is out of reach at any
    delivery time.
    """
    # here, not at the top: fractions imports decimal, about 1.5 ms and 0.3 MB
    # that every other command would pay
    from fractions import Fraction

    raise_violations("architecture spec", validate_architecture(spec))
    policy = link.config.policy
    rounds = policy.distill_rounds
    f_del = _distilled(delivered_fidelity(link).f_del, rounds)
    min_t_del = min_time_to_fidelity(
        link, _undistilled_target(spec.target_fidelity, rounds)
    )

    t_del = policy.t_del_us
    speedup = t_del / spec.clock_cycle_us
    per_clock = math.ceil(Fraction(repr(t_del)) / Fraction(repr(spec.clock_cycle_us)))
    per_link = policy.n_parallel * per_clock * 2**rounds
    links = edge_qubit_count(spec.qubits_per_processor)
    total = links * per_link
    feasible, factor = _limiting_factor(
        total, spec.transducer_budget, spec.qubits_per_processor
    )
    return PlanReport(
        architecture=spec.architecture.value,
        links_required=links,
        transducers_per_link=per_link,
        total_transducers=total,
        feasible=feasible,
        limiting_factor=factor,
        speedup=speedup,
        t_del_us=t_del,
        min_t_del_us=min_t_del,
        fidelity_at_t_del=f_del,
        fidelity_met=f_del >= spec.target_fidelity,
        link_error_below_threshold=(1.0 - f_del) < LATTICE_SURGERY_LINK_ERROR_THRESHOLD,
    )


class CircuitCutComparison(Record):
    """circuit_cut_comparison's link counts, quantum against classical."""

    gamma_quantum: float
    gamma_classical: float
    k_quantum: int | None  # None = unbounded: quantum links are free (gamma <= 1)
    k_classical: int
    advantage: bool


def _k_quantum(budget: int, exponent) -> int:
    """The largest k with 10^(k * exponent) <= budget, for a Fraction exponent > 0.

    log10(budget) is a whole number where budget is a power of 10, and the
    quotient is then taken exactly. Anywhere else it is irrational, and so is
    its quotient by the exponent: a correctly rounded log10 to enough digits
    places it strictly between two whole numbers. 50 digits settle almost
    every budget. One next to a power of gamma, such as isqrt(10^101) at
    gamma 10^0.5, needs about as many digits as it has, and the digits grow
    until the count is settled.
    """
    from decimal import Context, Decimal
    from fractions import Fraction

    digits = Decimal(budget).adjusted()  # floor(log10(budget))
    if budget == 10**digits:
        return math.floor(digits / exponent)
    prec = 50
    while True:
        log10 = Fraction(Context(prec=prec).log10(budget))
        slack = log10 / 10 ** (prec - 1)  # above a correctly rounded result's error
        low, high = (math.floor((log10 + s) / exponent) for s in (-slack, slack))
        if low == high:
            return low
        prec = max(2 * prec, digits + 60)


def circuit_cut_comparison(infidelity: float, circuit_budget: int) -> CircuitCutComparison:
    """How many inter-module links a circuit budget can cover, quantum vs classical.

    Replacing k links classically costs gamma_classical^k circuit executions;
    imperfect quantum links cost gamma_quantum(infidelity)^k. Both gammas come
    from a calibrated log-linear model (see module constants), so the quantum
    side wins exactly when infidelity < 0.30. Each k is the largest with
    gamma^k <= budget, exactly. Classically that is 10^k <= budget^2, one less
    than the square's digit count. On the quantum side log10(gamma_q) is taken
    between the spelled decimals (the repr) of the infidelity and the
    constants, and k_quantum is None where that is not above 0 (see
    _k_quantum).
    """
    # here, not at the top: decimal costs every other command 1.5 ms (see
    # lattice_surgery_plan)
    from decimal import Decimal
    from fractions import Fraction

    if not 0.0 <= infidelity < 1.0:
        raise ConfigError("infidelity out of [0, 1)")
    if circuit_budget < 1:
        raise ConfigError("circuit_budget must be >= 1")
    budget = int(circuit_budget)  # Decimal takes no numpy integer
    gamma_quantum = 10.0 ** (_GAMMA_Q_SLOPE * infidelity + _GAMMA_Q_OFFSET)
    # float() first: a numpy float's repr spells its type
    exponent = (Fraction(repr(_GAMMA_Q_SLOPE)) * Fraction(repr(float(infidelity)))
                + Fraction(repr(_GAMMA_Q_OFFSET)))
    return CircuitCutComparison(
        gamma_quantum=gamma_quantum,
        gamma_classical=GAMMA_CLASSICAL,
        k_quantum=_k_quantum(budget, exponent) if exponent > 0 else None,
        k_classical=Decimal(budget * budget).adjusted(),
        advantage=infidelity < CIRCUIT_CUT_BREAK_EVEN_INFIDELITY,
    )


def graph_state_pipe_width(code_distance: int) -> int:
    """Channels per graph-state pipe: one per unit of code distance."""
    if code_distance < 1:
        raise ConfigError("code_distance must be >= 1")
    return code_distance


class CryostatCheck(Record):
    """A (links, channels per link) pair against the per-cryostat envelopes."""

    links: int
    transducers_per_link: int
    total_channels: int
    links_in_envelope: bool
    per_link_in_envelope: bool
    total_in_envelope: bool
    in_envelope: bool


def cryostat_budget_check(links: int, transducers_per_link: int) -> CryostatCheck:
    """Flag a (links, channels-per-link) pair against per-cryostat envelopes."""
    if links < 1 or transducers_per_link < 1:
        raise ConfigError("links and transducers_per_link must be >= 1")
    total = links * transducers_per_link
    links_ok = LINKS_ENVELOPE[0] <= links <= LINKS_ENVELOPE[1]
    per_link_ok = PER_LINK_ENVELOPE[0] <= transducers_per_link <= PER_LINK_ENVELOPE[1]
    total_ok = TOTAL_CHANNELS_ENVELOPE[0] <= total <= TOTAL_CHANNELS_ENVELOPE[1]
    return CryostatCheck(
        links=links,
        transducers_per_link=transducers_per_link,
        total_channels=total,
        links_in_envelope=links_ok,
        per_link_in_envelope=per_link_ok,
        total_in_envelope=total_ok,
        in_envelope=links_ok and per_link_ok and total_ok,
    )


class TradeoffPoint(Record):
    """One Pareto-optimal point of tradeoff_surface, with the link width,
    distillation rounds and delivery time that reach it."""

    n_links: int
    rate_per_us: float  # 1 / optimal t_del
    f_del: float
    n_parallel: int
    distill_rounds: int
    t_del_us: float


def _pareto_front(candidates) -> list:
    """Candidates whose first three entries no other candidate's dominate.

    The objective triples must be distinct. Maximizes all three; returns the
    survivors in descending lexicographic order of their triples. This is
    the maxima sweep of Kung, Luccio & Preparata (J. ACM 22, 1975): in that
    order every dominator of a point comes before it, so a point is
    dominated exactly when an earlier point has both its second and third
    entries at least as high. A staircase of the earlier points' 2-D maxima,
    second entry ascending and third descending, answers that with one
    bisection. O(C log C) for C candidates.
    """
    front = []
    seconds: list = []  # the staircase, non-decreasing
    thirds: list = []  # strictly decreasing along it
    for cand in sorted(candidates, reverse=True):
        second, third = cand[1], cand[2]
        i = bisect_left(seconds, second)
        if i < len(seconds) and thirds[i] >= third:
            continue
        front.append(cand)
        # put it in place of the points to its left that it dominates; a
        # point with an equal second entry may stay to its right, where
        # bisect_left never returns it
        lo = i
        while lo > 0 and thirds[lo - 1] <= third:
            lo -= 1
        seconds[lo:i] = [second]
        thirds[lo:i] = [third]
    return front


def _first_of_each(*keys) -> np.ndarray:
    """Index of the first entry of each distinct tuple of keys, tuples ascending.

    The first key is the primary one. The sort is stable, so the first
    entry of equal tuples is the one with the smallest index.
    """
    order = np.lexsort(keys[::-1])
    ranked = [key[order] for key in keys]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any([key[1:] != key[:-1] for key in ranked], axis=0)
    return order[first]


def tradeoff_surface(budget: int, link: Link, k_max: int | None = None) -> tuple:
    """Pareto-optimal (n_links, rate, f_del) points for a channel budget.

    A budget of B channels can host n_links links of n_parallel channels
    each, with 2**rounds pairs burnt per delivered pair when distilling.
    Widths run from 1 to min(B, MAX_TRANSDUCERS_PER_MODULE): no link is
    wider than a module's channel ceiling, so the work stays bounded for any
    budget. Each width runs the resolved `link` at its optimal delivery
    time, with that width as n_parallel, so the memory (its boosted p_her
    and its lifetime cap on the search), the fidelity model and a p_her
    reference take effect. Returns the non-dominated points under
    simultaneous maximization of all three axes, sorted by descending
    n_links, then rate, then fidelity.

    The optimal delivery times of all W widths come from one
    optimal_delivery_time call. Only the narrowest width of each distinct
    optimum (t*, f*) makes candidates: a wider link with the same optimum
    has the same rate and f at every round count and no more links, so its
    point is dominated or a costlier witness of the same triple. The C
    candidates, at most 5 of them for each distinct optimum, are built as
    arrays with the float operations of _distilled. One stable lexsort
    orders them and keeps the cheapest witness of equal triples (the
    smallest n_parallel, then rounds); _pareto_front filters the rest in
    O(C log C).
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    widths = np.arange(1, min(budget, MAX_TRANSDUCERS_PER_MODULE) + 1)
    t_stars, f_stars = optimal_delivery_time(link, k_max, n_parallel=widths)
    narrowest = np.sort(_first_of_each(t_stars, f_stars))
    n_parallel, t_star, f_star = widths[narrowest], t_stars[narrowest], f_stars[narrowest]
    # a row per width, ascending, and a column per round count
    rounds = np.arange(TRADEOFF_MAX_DISTILL_ROUNDS + 1)
    n_links = budget // (n_parallel[:, None] * 2**rounds)
    f_del = np.repeat(f_star[:, None], rounds.size, axis=1)
    up = f_star > 0.5  # no round raises an f_del at or below 1/2
    for r in rounds[1:].tolist():
        f_del[up, r] = calibrated_distill(f_star[up], r)
    fits = n_links >= 1
    row, col = np.nonzero(fits)
    # a subnormal t* overflows its rate to inf, which a CSV cell writes as is
    with np.errstate(over="ignore"):
        rate = 1.0 / t_star[row]
    cands = (n_links[fits], rate, f_del[fits], n_parallel[row], col, t_star[row])
    # descending triples; the candidates ascend in (width, rounds), so the
    # first of equal triples is the cheapest witness
    kept = _first_of_each(-cands[0], -cands[1], -cands[2])
    front = _pareto_front(zip(*(c[kept].tolist() for c in cands)))
    return tuple(TradeoffPoint(*c) for c in front)
