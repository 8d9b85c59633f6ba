"""Module-scale planning arithmetic: links, budgets, cutting, trade-offs."""

import hashlib
import math
import time
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from translink import (
    Architecture,
    ArchitectureSpec,
    ConfigError,
    DeliveryPolicy,
    GAMMA_CLASSICAL,
    LinkConfig,
    MemoryKind,
    MemoryParams,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    UnattainableError,
    calibrated_distill,
    circuit_cut_comparison,
    cryostat_budget_check,
    edge_qubit_count,
    graph_state_pipe_width,
    lattice_surgery_plan,
    optimal_delivery_time,
    preset,
    resolve,
    tradeoff_surface,
    validate_architecture,
)
from translink.params import MAX_TRANSDUCER_BUDGET, MAX_TRANSDUCERS_PER_MODULE
from translink.planner import _pareto_front

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


@pytest.mark.parametrize(
    "bad", [None, "x", math.nan, math.inf, -math.inf], ids=repr
)
def test_validate_architecture_is_total(bad):
    good = ArchitectureSpec(1000, 1.0, 10_000, 0.89)
    for name in ("qubits_per_processor", "clock_cycle_us", "transducer_budget",
                 "target_fidelity"):
        v = validate_architecture(replace(good, **{name: bad}))
        assert all(isinstance(line, str) for line in v)
        if bad is not math.inf:
            assert any(line.startswith(f"architecture.{name} ") for line in v)


def test_lattice_plan_parallel_link():
    spec = ArchitectureSpec(1000, 1.0, 10_000, 0.89)
    plan = lattice_surgery_plan(spec, resolve(_parallel_link()))
    assert plan.links_required == 32
    assert plan.transducers_per_link == 300
    assert plan.total_transducers == 9600
    assert plan.qubits_communication == 9600
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


def test_lattice_plan_fractional_clock_rounds_up():
    spec = ArchitectureSpec(1000, 2.0, 10_000, 0.89)
    plan = lattice_surgery_plan(spec, resolve(_parallel_link()))
    assert plan.speedup == pytest.approx(7.5)
    assert plan.transducers_per_link == 20 * 8


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


def _brute_force_surface(budget, k_max=400):
    """Re-enumerate every allocation and drop dominated points, O(n^2)."""
    t2, q1 = preset("transducer2"), preset("qubit1")
    per_width = {}
    cands = []
    for n in range(1, budget + 1):
        for rounds in range(5):
            n_links = budget // (n * 2**rounds)
            if n_links < 1:
                continue
            if n not in per_width:
                probe = LinkConfig(
                    transducer=t2,
                    qubit=q1,
                    protocol=PARALLEL_PROTOCOL,
                    policy=DeliveryPolicy(t_del_us=1.0, n_parallel=n),
                )
                per_width[n] = optimal_delivery_time(resolve(probe), k_max=k_max)
            t_star, f_star = per_width[n]
            f = calibrated_distill(f_star, rounds) if rounds and f_star > 0.5 else f_star
            cands.append((n_links, 1.0 / t_star, f, n, rounds, t_star))
    unique = {}
    for cand in sorted(cands, key=lambda c: (c[3], c[4])):
        unique.setdefault(cand[:3], cand)
    cands = list(unique.values())
    front = [
        c
        for c in cands
        if not any(
            all(d[i] >= c[i] for i in range(3)) and any(d[i] > c[i] for i in range(3))
            for d in cands
        )
    ]
    front.sort(key=lambda c: (-c[0], -c[1], -c[2]))
    return front


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13, 16, 21, 40, 64])
def test_tradeoff_matches_brute_force(budget):
    got = tradeoff_surface(budget, resolve(_parallel_link()), k_max=400)
    got_rows = [
        (p.n_links, p.rate_per_us, p.f_del, p.n_parallel, p.distill_rounds, p.t_del_us)
        for p in got
    ]
    assert got_rows == _brute_force_surface(budget)


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
    objs = np.asarray(objs, dtype=np.float64)
    ge = (objs[None, :, :] >= objs[:, None, :]).all(axis=2)
    gt = (objs[None, :, :] > objs[:, None, :]).any(axis=2)
    return int((ge & gt).sum())


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
    search and the C x C dominance filter gave."""
    got = tradeoff_surface(MAX_TRANSDUCERS_PER_MODULE, resolve(_parallel_link()))
    rows = [astuple(p) for p in got]
    assert len(rows) == 522
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "205b9f7e5f339eedba0f5068a07a89a82ddca6684702bb298e7e408201d9e765"
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
