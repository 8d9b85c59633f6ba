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
from dataclasses import dataclass

import numpy as np

from .delivery import (
    Link,
    delivered_fidelity,
    min_time_to_fidelity,
    optimal_delivery_time,
)
from .distillation import calibrated_distill
from .errors import ConfigError
from .params import MAX_TRANSDUCERS_PER_MODULE, ArchitectureSpec, validate_architecture

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

@dataclass(frozen=True)
class PlanReport:
    architecture: str
    links_required: int
    transducers_per_link: int
    total_transducers: int
    qubits_communication: int
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


def _limiting_factor(total: int, budget: int, qubits: int, qubit_cap: int) -> tuple:
    """Feasibility verdict plus the constraint with the least slack."""
    constraints = [
        ("transducer budget", total / budget),
        ("module channel ceiling", total / MAX_TRANSDUCERS_PER_MODULE),
        ("communication qubits", qubits / qubit_cap),
    ]
    name, utilization = max(constraints, key=lambda item: item[1])
    return utilization <= 1.0, name


def lattice_surgery_plan(spec: ArchitectureSpec, link: Link) -> PlanReport:
    """Resource tally for clock-rate lattice surgery across module boundaries.

    Every edge qubit of the square patch needs its own link, and each link
    must deliver one pair per clock cycle. A link that natively delivers in
    t_del is sped up by parallelization alone, so the per-link channel count
    is n_parallel * ceil(t_del / clock) * 2**distill_rounds. Raises
    UnattainableError (via min_time_to_fidelity) when the target fidelity is
    out of reach at any delivery time.
    """
    violations = validate_architecture(spec)
    if violations:
        raise ConfigError("invalid architecture spec: " + "; ".join(violations), violations)
    metrics = delivered_fidelity(link)
    min_t_del = min_time_to_fidelity(link, spec.target_fidelity)

    policy = link.config.policy
    t_del = policy.t_del_us
    speedup = t_del / spec.clock_cycle_us
    per_link = policy.n_parallel * math.ceil(speedup - 1e-9) * 2**policy.distill_rounds
    links = edge_qubit_count(spec.qubits_per_processor)
    total = links * per_link
    feasible, factor = _limiting_factor(
        total, spec.transducer_budget, total, spec.qubits_per_processor
    )
    return PlanReport(
        architecture=spec.architecture.value,
        links_required=links,
        transducers_per_link=per_link,
        total_transducers=total,
        qubits_communication=total,
        feasible=feasible,
        limiting_factor=factor,
        speedup=speedup,
        t_del_us=t_del,
        min_t_del_us=min_t_del,
        fidelity_at_t_del=metrics.f_del,
        fidelity_met=metrics.f_del + 1e-12 >= spec.target_fidelity,
        link_error_below_threshold=(1.0 - metrics.f_del)
        < LATTICE_SURGERY_LINK_ERROR_THRESHOLD,
    )


@dataclass(frozen=True)
class CircuitCutComparison:
    gamma_quantum: float | None  # None when quantum links are free (gamma <= 1)
    gamma_classical: float
    k_quantum: int | None  # None = unbounded at this budget
    k_classical: int
    advantage: bool


def _k_max(budget: int, gamma: float) -> int:
    # small epsilon so exact powers of gamma are not floored away
    return int(math.floor(math.log(budget) / math.log(gamma) + 1e-9))


def circuit_cut_comparison(infidelity: float, circuit_budget: int) -> CircuitCutComparison:
    """How many inter-module links a circuit budget can cover, quantum vs classical.

    Replacing k links classically costs gamma_classical^k circuit executions;
    imperfect quantum links cost gamma_quantum(infidelity)^k. Both gammas come
    from a calibrated log-linear model (see module constants), so the quantum
    side wins exactly when infidelity < 0.30.
    """
    if not 0.0 <= infidelity < 1.0:
        raise ConfigError("infidelity out of [0, 1)")
    if circuit_budget < 1:
        raise ConfigError("circuit_budget must be >= 1")
    k_classical = _k_max(circuit_budget, GAMMA_CLASSICAL)
    log_gamma_q = _GAMMA_Q_SLOPE * infidelity + _GAMMA_Q_OFFSET
    gamma_quantum = 10.0**log_gamma_q
    if gamma_quantum <= 1.0:
        return CircuitCutComparison(
            gamma_quantum=gamma_quantum,
            gamma_classical=GAMMA_CLASSICAL,
            k_quantum=None,
            k_classical=k_classical,
            advantage=True,
        )
    return CircuitCutComparison(
        gamma_quantum=gamma_quantum,
        gamma_classical=GAMMA_CLASSICAL,
        k_quantum=_k_max(circuit_budget, gamma_quantum),
        k_classical=k_classical,
        advantage=infidelity < CIRCUIT_CUT_BREAK_EVEN_INFIDELITY,
    )


def graph_state_pipe_width(code_distance: int) -> int:
    """Channels per graph-state pipe: one per unit of code distance."""
    if code_distance < 1:
        raise ConfigError("code_distance must be >= 1")
    return code_distance


@dataclass(frozen=True)
class CryostatCheck:
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


@dataclass(frozen=True)
class TradeoffPoint:
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

    Candidates with equal objective triples keep the cheapest witness (the
    smallest n_parallel, then rounds); _pareto_front then filters the C
    candidates, at most 5 W of them for W widths, in O(C log C). The optimal
    delivery times of all W widths come from one optimal_delivery_time call.
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    widths = np.arange(1, min(budget, MAX_TRANSDUCERS_PER_MODULE) + 1)
    t_stars, f_stars = optimal_delivery_time(link, k_max, n_parallel=widths)
    unique: dict = {}
    optima = zip(t_stars.tolist(), f_stars.tolist())
    for n_parallel, (t_star, f_star) in enumerate(optima, start=1):
        for rounds in range(TRADEOFF_MAX_DISTILL_ROUNDS + 1):
            n_links = budget // (n_parallel * 2**rounds)
            if n_links < 1:
                break
            f_del = (
                calibrated_distill(f_star, rounds)
                if rounds > 0 and f_star > 0.5
                else f_star
            )
            cand = (n_links, 1.0 / t_star, f_del, n_parallel, rounds, t_star)
            # widths and rounds ascend, so the first witness is the cheapest
            unique.setdefault(cand[:3], cand)
    return tuple(TradeoffPoint(*c) for c in _pareto_front(unique.values()))
