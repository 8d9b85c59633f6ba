"""Module-scale planning arithmetic: links, budgets, cutting, trade-offs."""

import hashlib
import math
import time
from dataclasses import astuple, replace
from decimal import Context
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from translink import (
    Architecture,
    ArchitectureSpec,
    ConfigError,
    DeliveryPolicy,
    FidelityModel,
    GAMMA_CLASSICAL,
    LinkConfig,
    MemoryKind,
    MemoryParams,
    ModelDomainError,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    StorageQubitParams,
    UnattainableError,
    calibrated_distill,
    circuit_cut_comparison,
    delivered_fidelity,
    cryostat_budget_check,
    edge_qubit_count,
    graph_state_pipe_width,
    lattice_surgery_plan,
    optimal_delivery_time,
    preset,
    resolve,
    tradeoff_surface,
    validate,
    validate_architecture,
)
from grid_oracle import grid_f_del, grid_k_max
from translink.params import MAX_TRANSDUCER_BUDGET, MAX_TRANSDUCERS_PER_MODULE
from translink.planner import _limiting_factor, _pareto_front

PARALLEL_PROTOCOL = ProtocolSpec(
    PhotonBasis.ONE_PHOTON, PumpMode.TMS, p_mo_override=0.02
)


def _parallel_link(t_del=15.0, n_parallel=20):
    return LinkConfig(
        transducer=preset("transducer2"),
        qubit=preset("qubit1"),
        protocol=PARALLEL_PROTOCOL,
        policy=DeliveryPolicy(t_del_us=t_del, n_parallel=n_parallel),
    )


def _memory_link():
    return LinkConfig(
        transducer=preset("transducer2"),
        qubit=preset("qubit2"),
        protocol=ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION),
        memory=MemoryParams(MemoryKind.SPIN_CAVITY, eta_mem=1.0, lifetime_us=1000.0),
        policy=DeliveryPolicy(t_del_us=400.0),
    )


def test_edge_qubit_count():
    assert edge_qubit_count(1) == 1
    assert edge_qubit_count(2) == 2
    assert edge_qubit_count(999) == 32
    assert edge_qubit_count(1000) == 32
    assert edge_qubit_count(1024) == 32
    assert edge_qubit_count(1025) == 33
    assert edge_qubit_count(10_000) == 100
    with pytest.raises(ConfigError):
        edge_qubit_count(0)


def test_validate_architecture_messages():
    bad = ArchitectureSpec(
        qubits_per_processor=0,
        clock_cycle_us=0.0,
        transducer_budget=0,
        target_fidelity=0.5,
    )
    v = validate_architecture(bad)
    assert "architecture.qubits_per_processor must be >= 1" in v
    assert "architecture.clock_cycle_us must be > 0" in v
    assert "architecture.transducer_budget must be >= 1" in v
    assert "architecture.target_fidelity out of (0.5, 1)" in v
    good = ArchitectureSpec(1000, 1.0, 10_000, 0.89)
    assert validate_architecture(good) == []


def test_clock_cycle_must_be_finite():
    """An infinite clock has its own violation; a storage qubit's infinite
    coherence time stays valid."""
    spec = ArchitectureSpec(1000, math.inf, 10_000, 0.89)
    assert validate_architecture(spec) == ["architecture.clock_cycle_us must be finite"]
    with pytest.raises(ConfigError, match="clock_cycle_us must be finite"):
        lattice_surgery_plan(spec, resolve(_parallel_link()))
    forever = replace(_parallel_link(), qubit=replace(preset("qubit1"), t_coh_us=math.inf))
    assert validate(forever) == []


@pytest.mark.parametrize(
    "bad", [None, "x", math.nan, math.inf, -math.inf], ids=repr
)
def test_validate_architecture_is_total(bad):
    good = ArchitectureSpec(1000, 1.0, 10_000, 0.89)
    for name in ("qubits_per_processor", "clock_cycle_us", "transducer_budget",
                 "target_fidelity"):
        v = validate_architecture(replace(good, **{name: bad}))
        assert all(isinstance(line, str) for line in v)
        assert any(line.startswith(f"architecture.{name} ") for line in v)


def test_lattice_plan_parallel_link():
    spec = ArchitectureSpec(1000, 1.0, 10_000, 0.89)
    plan = lattice_surgery_plan(spec, resolve(_parallel_link()))
    assert plan.links_required == 32
    assert plan.transducers_per_link == 300
    assert plan.total_transducers == 9600
    # one communication qubit per transducer, past the processor's 1000
    assert plan.total_transducers > spec.qubits_per_processor
    assert plan.feasible is False
    assert plan.limiting_factor == "communication qubits"
    assert plan.speedup == pytest.approx(15.0)
    assert plan.min_t_del_us == pytest.approx(8.0)
    assert plan.fidelity_met is True
    assert plan.link_error_below_threshold is False  # 1 - 0.8964 just over 0.1


def test_lattice_plan_memory_link():
    spec = ArchitectureSpec(1000, 1.0, 100_000, 0.90)
    plan = lattice_surgery_plan(spec, resolve(_memory_link()))
    assert plan.transducers_per_link == 400
    assert plan.total_transducers == 32 * 400
    assert plan.min_t_del_us == pytest.approx(86.0)
    assert plan.fidelity_met is True
    assert plan.link_error_below_threshold is True
    # clock-rate links for kiloqubit modules need hundreds of channels each
    assert 300 <= plan.transducers_per_link <= 400


def test_lattice_plan_feasible_when_clock_matches():
    spec = ArchitectureSpec(1000, 15.0, 10_000, 0.89)
    plan = lattice_surgery_plan(spec, resolve(_parallel_link()))
    assert plan.speedup == pytest.approx(1.0)
    assert plan.transducers_per_link == 20
    assert plan.total_transducers == 640
    assert plan.feasible is True
    assert plan.limiting_factor == "communication qubits"


def test_lattice_plan_limiting_factor_budget():
    spec = ArchitectureSpec(100_000, 1.0, 9_000, 0.89)
    plan = lattice_surgery_plan(spec, resolve(_parallel_link()))
    assert plan.links_required == 317
    assert plan.feasible is False
    assert plan.limiting_factor == "transducer budget"


def test_lattice_plan_limiting_factor_ceiling():
    spec = ArchitectureSpec(1_000_000, 1.0, 10_000_000, 0.89)
    plan = lattice_surgery_plan(spec, resolve(_parallel_link()))
    assert plan.total_transducers == 300_000
    assert plan.feasible is False
    assert plan.limiting_factor == "module channel ceiling"


@pytest.mark.parametrize("spec, factor", [
    # 15 us / 1e-310 us: more clock cycles, and channels, than a float holds
    (ArchitectureSpec(1000, 1e-310, 10_000, 0.89), "communication qubits"),
    # 10^350 links of 300 channels
    (ArchitectureSpec(10**700, 1.0, 10_000, 0.89), "transducer budget"),
], ids=["subnormal-clock", "10**700-qubits"])
def test_lattice_plan_beyond_the_float_range(spec, factor):
    plan = lattice_surgery_plan(spec, resolve(_parallel_link()))
    cycles = math.ceil(Fraction("15.0") / Fraction(repr(spec.clock_cycle_us)))
    assert plan.transducers_per_link == 20 * cycles
    assert plan.links_required == edge_qubit_count(spec.qubits_per_processor)
    assert plan.total_transducers == plan.links_required * plan.transducers_per_link
    assert (plan.feasible, plan.limiting_factor) == (False, factor)


@settings(max_examples=200, deadline=None, derandomize=True)
@example(total=10_000, budget=10_000, qubit_cap=10_000)
@example(total=10_001, budget=10**9, qubit_cap=10**30)
@given(
    total=st.integers(1, 10**20),
    budget=st.integers(1, MAX_TRANSDUCER_BUDGET),
    qubit_cap=st.integers(1, 10**30),
)
def test_limiting_factor_matches_float_utilizations(total, budget, qubit_cap):
    """Wherever the float utilizations are finite, the exact comparison
    gives their verdict and factor: the first of the largest."""
    constraints = [
        ("transducer budget", total / budget),
        ("module channel ceiling", total / MAX_TRANSDUCERS_PER_MODULE),
        ("communication qubits", total / qubit_cap),
    ]
    name, utilization = max(constraints, key=lambda item: item[1])
    assert _limiting_factor(total, budget, qubit_cap) == (utilization <= 1.0, name)


def test_lattice_plan_distill_rounds_multiply_channels():
    cfg = LinkConfig(
        transducer=preset("transducer2"),
        qubit=preset("qubit1"),
        protocol=PARALLEL_PROTOCOL,
        policy=DeliveryPolicy(t_del_us=15.0, n_parallel=20, distill_rounds=2),
    )
    spec = ArchitectureSpec(1000, 1.0, 10_000, 0.89)
    plan = lattice_surgery_plan(spec, resolve(cfg))
    assert plan.transducers_per_link == 300 * 4


def _distilled_by_hand(f_del, rounds):
    return calibrated_distill(f_del, rounds) if rounds > 0 and f_del > 0.5 else f_del


@pytest.mark.parametrize("rounds", range(5))
def test_lattice_plan_distilled_min_t_del_matches_grid_oracle(rounds):
    """min_t_del_us is the first grid round whose distilled f_del reaches the
    target, and the fidelity fields hold the distilled f_del at t_del.

    The targets include each distilled grid value of the rise and the float
    just above it, where the map's inverse and the map itself can disagree
    in the last bit.
    """
    cfg = _parallel_link()
    cfg = replace(cfg, policy=replace(cfg.policy, distill_rounds=rounds))
    link = resolve(cfg)
    t_grid, f_grid = grid_f_del(cfg, grid_k_max(cfg))
    distilled = np.array([_distilled_by_hand(f, rounds) for f in f_grid.tolist()])
    targets = {*np.linspace(0.501, 0.999, 50).tolist()}
    for value in distilled[:40].tolist():
        targets |= {value, math.nextafter(value, 1.0)}
    for target in sorted(t for t in targets if 0.5 < t < 1.0):
        spec = ArchitectureSpec(1000, 1.0, 10_000, target)
        hits = np.flatnonzero(distilled >= target)
        if hits.size == 0:
            with pytest.raises(UnattainableError):
                lattice_surgery_plan(spec, link)
            continue
        plan = lattice_surgery_plan(spec, link)
        assert plan.min_t_del_us == t_grid[hits[0]], target
        f_del = _distilled_by_hand(delivered_fidelity(link).f_del, rounds)
        assert plan.fidelity_at_t_del == f_del
        assert plan.fidelity_met is (f_del >= target)


@pytest.mark.parametrize("rounds", [0, 2])
def test_lattice_plan_fidelity_met_iff_min_t_del_reached(rounds):
    """Up to the optimum, f_del rises round by round, so at a t_del on the
    round grid the verdict and the search agree: fidelity_met holds exactly
    when min_t_del_us <= t_del_us. The targets sit at each grid value, one
    float above it and 5e-13 above it."""
    cfg = _parallel_link()
    cfg = replace(cfg, policy=replace(cfg.policy, distill_rounds=rounds))
    t_opt, _ = optimal_delivery_time(resolve(cfg))
    for t_del in np.arange(1.0, t_opt + 1.0).tolist():  # t_rep is 1 us
        link = resolve(replace(cfg, policy=replace(cfg.policy, t_del_us=t_del)))
        f_del = _distilled_by_hand(delivered_fidelity(link).f_del, rounds)
        for target in (f_del, math.nextafter(f_del, 1.0), f_del + 5e-13):
            if not 0.5 < target < 1.0:
                continue
            spec = ArchitectureSpec(1000, 1.0, 10_000, target)
            if t_del == t_opt and target > f_del:
                with pytest.raises(UnattainableError):
                    lattice_surgery_plan(spec, link)
                continue
            plan = lattice_surgery_plan(spec, link)
            assert plan.fidelity_met is (plan.min_t_del_us <= t_del), (t_del, target)


def test_lattice_plan_fractional_clock_rounds_up():
    spec = ArchitectureSpec(1000, 2.0, 10_000, 0.89)
    plan = lattice_surgery_plan(spec, resolve(_parallel_link()))
    assert plan.speedup == pytest.approx(7.5)
    assert plan.transducers_per_link == 20 * 8


@pytest.mark.parametrize(
    "t_del, clock, per_link",
    [(3.0000000005, 1.0, 4), (0.9, 0.3, 3), (0.7, 0.1, 7), (15.0, 2.0, 8)],
)
def test_lattice_plan_channels_cover_the_spelled_quotient(t_del, clock, per_link):
    """One pair per clock takes ceil(t_del / clock) channels of the decimals
    given: a fraction above a whole number is never dropped, and a float
    quotient's last-bit error (0.9 / 0.3, 0.7 / 0.1) adds no channel."""
    cfg = LinkConfig(
        transducer=replace(preset("transducer2"), t_rep_us=0.1),
        qubit=preset("qubit1"),
        protocol=PARALLEL_PROTOCOL,
        policy=DeliveryPolicy(t_del_us=t_del),
    )
    spec = ArchitectureSpec(1000, clock, 10_000, 0.51)
    plan = lattice_surgery_plan(spec, resolve(cfg))
    assert plan.transducers_per_link == per_link
    assert plan.speedup == t_del / clock


def test_lattice_plan_unattainable_target():
    spec = ArchitectureSpec(1000, 1.0, 10_000, 0.99)
    with pytest.raises(UnattainableError):
        lattice_surgery_plan(spec, resolve(_parallel_link()))


def test_lattice_plan_rejects_bad_spec():
    spec = ArchitectureSpec(1000, 1.0, 10_000, 1.5)
    with pytest.raises(ConfigError) as err:
        lattice_surgery_plan(spec, resolve(_parallel_link()))
    assert err.value.violations


def test_circuit_cut_anchor_points():
    c = circuit_cut_comparison(0.10, 100_000)
    assert c.gamma_quantum == pytest.approx(10.0**0.1, rel=1e-15)
    assert c.gamma_classical == GAMMA_CLASSICAL
    assert c.k_quantum == 50
    assert c.k_classical == 10
    assert c.advantage is True

    even = circuit_cut_comparison(0.30, 100_000)
    assert even.gamma_quantum == pytest.approx(GAMMA_CLASSICAL, rel=1e-15)
    assert even.k_quantum == even.k_classical == 10
    assert even.advantage is False


def test_circuit_cut_free_links():
    c = circuit_cut_comparison(0.0, 100_000)
    assert c.gamma_quantum == pytest.approx(10.0**-0.1, rel=1e-15)
    assert c.k_quantum is None
    assert c.advantage is True
    boundary = circuit_cut_comparison(0.05, 100_000)
    assert boundary.k_quantum is None  # gamma exactly 1


def test_circuit_cut_budget_and_domain():
    assert circuit_cut_comparison(0.10, 1).k_classical == 0
    assert circuit_cut_comparison(0.10, 1).k_quantum == 0
    for bad in (-0.01, 1.0, 1.5):
        with pytest.raises(ConfigError):
            circuit_cut_comparison(bad, 100)
    with pytest.raises(ConfigError):
        circuit_cut_comparison(0.1, 0)
    # numpy scalars count as the Python numbers they hold
    assert circuit_cut_comparison(np.float64(0.1), np.int64(10**5)).k_quantum == 50
    single = np.float32(0.1)
    assert circuit_cut_comparison(single, 10**5).k_quantum == 49
    assert circuit_cut_comparison(float(single), 10**5).k_quantum == 49


# budgets next to 10^(n/2): powers of gamma_c and of gamma_q at x = 0.3 and 0.8
_HALF_POWER_NEIGHBOURS = st.builds(
    lambda n, offset: max(math.isqrt(10**n) + offset, 1), st.integers(0, 240), st.integers(-1, 1)
)


@settings(max_examples=300, deadline=None)
@given(
    budget=st.integers(1, 10**18) | _HALF_POWER_NEIGHBOURS,
    infidelity=st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(
        [0.05, 0.1, 0.15, 0.2, 0.3, 0.55, 0.8]
    ),
)
@example(budget=999_999_999, infidelity=0.05)  # k_classical 17, not 18
@example(budget=99_999_999_999, infidelity=0.05)  # 21, not 22
@example(budget=10**6, infidelity=0.2)  # gamma_q^20 = 10^6 exactly
@example(budget=10**6 - 1, infidelity=0.2)
@example(budget=math.isqrt(10**101), infidelity=0.3)  # 100 each, not 101
@example(budget=10**100 + 1, infidelity=0.3)
@example(budget=10**5, infidelity=0.05000000000000001)  # gamma_q is 1.0 as a float
def test_circuit_cut_counts_are_exact(budget, infidelity):
    """gamma^k <= budget < gamma^(k+1), with gamma_c^2 = 10 and log10(gamma_q)
    = e = 2x - 0.1 at the spelled decimal of x. Where e = p/q is a fraction
    with q <= 10, in integers: 10^(kp) <= budget^q. Elsewhere against a
    200-digit log10(budget)."""
    c = circuit_cut_comparison(infidelity, budget)
    assert 10**c.k_classical <= budget * budget < 10 ** (c.k_classical + 1)
    e = 2 * Fraction(repr(infidelity)) - Fraction(1, 10)
    assert (c.k_quantum is None) == (e <= 0)
    if c.k_quantum is None:
        return
    k, p, q = c.k_quantum, e.numerator, e.denominator
    if q <= 10:
        assert 10 ** (k * p) <= budget**q < 10 ** ((k + 1) * p)
    else:
        log10 = Fraction(Context(prec=200).log10(budget))
        assert k * e <= log10 < (k + 1) * e


def test_graph_state_pipe_width():
    assert graph_state_pipe_width(1) == 1
    assert graph_state_pipe_width(7) == 7
    with pytest.raises(ConfigError):
        graph_state_pipe_width(0)


def test_cryostat_envelopes():
    ok = cryostat_budget_check(100, 100)
    assert ok.total_channels == 10_000
    assert ok.in_envelope is True
    low = cryostat_budget_check(10, 10)
    assert low.total_channels == 100
    assert low.in_envelope is True

    wide = cryostat_budget_check(320, 2)
    assert wide.links_in_envelope is False
    assert wide.per_link_in_envelope is False
    assert wide.total_in_envelope is True
    assert wide.in_envelope is False

    assert cryostat_budget_check(9, 100).links_in_envelope is False
    assert cryostat_budget_check(50, 1).total_in_envelope is False
    with pytest.raises(ConfigError):
        cryostat_budget_check(0, 5)


def _dominance(objs):
    """Matrix whose entry (a, b) says that objective row b dominates row a; O(n^2)."""
    objs = np.asarray(objs, dtype=np.float64).reshape(-1, 3)
    ge = (objs[None, :, :] >= objs[:, None, :]).all(axis=2)
    gt = (objs[None, :, :] > objs[:, None, :]).any(axis=2)
    return ge & gt


def _brute_force_surface(cfg, budget, k_max=400):
    """Re-enumerate every allocation and drop dominated points, O(n^2)."""
    per_width = {}
    cands = []
    for n in range(1, budget + 1):
        for rounds in range(5):
            n_links = budget // (n * 2**rounds)
            if n_links < 1:
                continue
            if n not in per_width:
                probe = replace(cfg, policy=replace(cfg.policy, n_parallel=n))
                per_width[n] = optimal_delivery_time(resolve(probe), k_max=k_max)
            t_star, f_star = per_width[n]
            f = calibrated_distill(f_star, rounds) if rounds and f_star > 0.5 else f_star
            cands.append((n_links, 1.0 / t_star, f, n, rounds, t_star))
    unique = {}
    for cand in sorted(cands, key=lambda c: (c[3], c[4])):
        unique.setdefault(cand[:3], cand)
    cands = list(unique.values())
    dominated = _dominance([c[:3] for c in cands]).any(axis=1)
    front = [c for c, beaten in zip(cands, dominated) if not beaten]
    front.sort(key=lambda c: (-c[0], -c[1], -c[2]))
    return front


def _rows(points):
    return [
        (p.n_links, p.rate_per_us, p.f_del, p.n_parallel, p.distill_rounds, p.t_del_us)
        for p in points
    ]


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13, 16, 21, 40, 64])
def test_tradeoff_matches_brute_force(budget):
    got = tradeoff_surface(budget, resolve(_parallel_link()), k_max=400)
    assert _rows(got) == _brute_force_surface(_parallel_link(), budget)


# (basis, pump, memory kind) of the links that validate
_LINK_KINDS = [
    (PhotonBasis.ONE_PHOTON, PumpMode.UPCONVERSION, None),
    (PhotonBasis.ONE_PHOTON, PumpMode.TMS, None),
    (PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION, None),
    (PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION, MemoryKind.SPIN_CAVITY),
    (PhotonBasis.TWO_PHOTON, PumpMode.TMS, None),
    (PhotonBasis.TWO_PHOTON, PumpMode.TMS, MemoryKind.CATCH_RELEASE),
]


@st.composite
def _tradeoff_links(draw):
    """A link whose herald probability per channel reaches 0.9, so that
    q = 1 - (1 - p_her)^N rounds to 1.0 within a few dozen channels, or is
    1, so that every width has the same optimum."""
    basis, pump, kind = draw(st.sampled_from(_LINK_KINDS))
    one_up = (basis, pump) == (PhotonBasis.ONE_PHOTON, PumpMode.UPCONVERSION)
    transducer = draw(st.sampled_from([preset("transducer1"), preset("transducer2")]))
    memory = None
    if kind is not None:
        memory = MemoryParams(
            kind, eta_mem=draw(st.floats(0.05, 1.0)), lifetime_us=draw(st.floats(50.0, 5000.0))
        )
    return LinkConfig(
        transducer=transducer,
        qubit=StorageQubitParams(t_coh_us=draw(st.floats(1.0, 1000.0))),
        protocol=ProtocolSpec(
            basis, pump, alpha=draw(st.floats(0.001, 0.5)) if one_up else None
        ),
        memory=memory,
        policy=DeliveryPolicy(
            t_del_us=transducer.t_rep_us,
            fidelity_model=draw(st.sampled_from(FidelityModel)),
        ),
        p_her_reference=draw(st.none() | st.floats(1e-4, 0.9) | st.just(1.0)),
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_tradeoff_links(), st.integers(1, 300), st.integers(1, 400))
def test_tradeoff_matches_brute_force_on_drawn_links(cfg, budget, k_max):
    """Wide links share the narrow ones' optimum once q saturates; keeping
    only the narrowest width of each optimum must not change the surface."""
    try:
        link = resolve(cfg)
    except ModelDomainError:  # no heralded-state model for this link
        return
    got = tradeoff_surface(budget, link, k_max=k_max)
    assert _rows(got) == _brute_force_surface(cfg, budget, k_max)


def test_tradeoff_reference_rows():
    got = tradeoff_surface(16, resolve(_parallel_link()))
    rows = [
        (p.n_links, p.n_parallel, p.distill_rounds, p.t_del_us) for p in got
    ]
    assert rows[0] == (16, 1, 0, 92.0)
    assert (8, 2, 0, 59.0) in rows
    assert (4, 2, 1, 59.0) in rows
    head = got[0]
    assert head.rate_per_us == pytest.approx(1 / 92, rel=1e-12)
    assert head.f_del == pytest.approx(0.767253867, abs=5e-10)
    four_link = [p for p in got if (p.n_links, p.n_parallel) == (4, 2)][0]
    assert four_link.f_del == pytest.approx(0.895932061, abs=5e-10)


def test_tradeoff_budget_one():
    got = tradeoff_surface(1, resolve(_parallel_link()), k_max=400)
    assert len(got) >= 1
    assert all(p.n_links == 1 and p.n_parallel == 1 for p in got)
    with pytest.raises(ConfigError):
        tradeoff_surface(0, resolve(_parallel_link()))


def test_tradeoff_points_not_dominated_pairwise():
    got = tradeoff_surface(32, resolve(_parallel_link()), k_max=400)
    objs = [(p.n_links, p.rate_per_us, p.f_del) for p in got]
    for i, a in enumerate(objs):
        for j, b in enumerate(objs):
            if i == j:
                continue
            assert not (
                all(b[k] >= a[k] for k in range(3))
                and any(b[k] > a[k] for k in range(3))
            )


def _dominated_pairs(objs):
    """Count ordered pairs (a, b) where b dominates a; O(n^2) with numpy."""
    return int(_dominance(objs).sum())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sets(st.tuples(*[st.integers(0, 4)] * 3), max_size=80))
def test_pareto_front_matches_brute_force(triples):
    """Small-integer triples tie on every axis; the sweep must still agree."""
    cands = [(*t, witness) for witness, t in enumerate(sorted(triples))]
    want = [
        c for c in cands
        if not any(
            all(d[k] >= c[k] for k in range(3)) and any(d[k] > c[k] for k in range(3))
            for d in cands
        )
    ]
    want.sort(key=lambda c: (-c[0], -c[1], -c[2]))
    assert _pareto_front(cands) == want


def test_tradeoff_at_module_ceiling():
    """Budget 10^4 on the lattice link, pinned to the rows that the full-grid
    search and the C x C dominance filter gave. Retaken when the delivery
    model moved to log space: the same 522 points, with f_del moved in the
    last bit on 129 of them, none at 9 significant digits."""
    got = tradeoff_surface(MAX_TRANSDUCERS_PER_MODULE, resolve(_parallel_link()))
    rows = [astuple(p) for p in got]
    assert len(rows) == 522
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "bb24bb1c1dbe19fdb9904ccea302513f45b5eef0a92ade187c3b31e676b583ed"
    )
    assert _dominated_pairs([row[:3] for row in rows]) == 0



def test_tradeoff_at_budget_cap_is_bounded():
    """Widths stop at the module ceiling, so the largest budget costs about
    what 10^4 does, and every point still fits the budget."""
    start = time.perf_counter()
    got = tradeoff_surface(MAX_TRANSDUCER_BUDGET, resolve(_parallel_link()))
    assert time.perf_counter() - start < 20.0
    assert got
    for p in got:
        assert 1 <= p.n_parallel <= MAX_TRANSDUCERS_PER_MODULE
        assert p.n_links * p.n_parallel * 2**p.distill_rounds <= MAX_TRANSDUCER_BUDGET
    assert _dominated_pairs([astuple(p)[:3] for p in got]) == 0


def test_transducer_budget_upper_bound():
    good = ArchitectureSpec(1000, 1.0, MAX_TRANSDUCER_BUDGET, 0.89)
    assert validate_architecture(good) == []
    over = replace(good, transducer_budget=MAX_TRANSDUCER_BUDGET + 1)
    assert validate_architecture(over) == [
        "architecture.transducer_budget must be <= 1000000000"
    ]
