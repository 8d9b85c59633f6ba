"""Timeout-window delivery statistics against a literal per-round oracle."""

import csv
import math
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grid_oracle import (
    grid_f_del,
    grid_k_max,
    grid_min_time_to_fidelity,
    grid_optimal_delivery_time,
)
from mp_oracle import PREC, mp_fallback, mp_peak, mp_point, rel_error
from translink import (
    ConfigError,
    DeliveryPolicy,
    FidelityModel,
    LinkConfig,
    MemoryKind,
    MemoryParams,
    ModelDomainError,
    NoOptimumError,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    StorageQubitParams,
    TransducerParams,
    UnattainableError,
    delivered_fidelity,
    delivery_curve,
    infidelity_breakdown,
    infidelity_breakdown_curve,
    min_time_to_fidelity,
    optimal_delivery_time,
    preset,
    resolve,
)
from translink import cli, delivery
from translink.config_io import parse_config
from translink.params import MAX_TRANSDUCERS_PER_MODULE

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _oracle_point(p_her, f_her, t_del, t_rep, t_coh, n_parallel=1):
    """Sum the herald-round distribution term by term; no closed form."""
    q = 1.0 - (1.0 - p_her) ** n_parallel
    k_rounds = int(math.floor(t_del / t_rep))
    p_success = 1.0 - (1.0 - q) ** k_rounds
    acc = 0.0
    for k in range(1, k_rounds + 1):
        p_k = (1.0 - q) ** (k - 1) * q
        tau = t_del - k * t_rep
        acc += p_k * math.exp(-tau / t_coh) if math.isfinite(t_coh) else p_k
    f_del = 0.5 + max(f_her - 0.5, 0.0) * acc
    return p_success, f_del


def _point(p_her, f_her, t_del, t_rep, t_coh, n_parallel=1):
    """(p_success, f_del) of delivered_fidelity on a link with these inputs.

    The link is resolved from a config with the given times and width, and
    then takes the given p_her and f_her in place of the formula values.
    """
    cfg = LinkConfig(
        transducer=replace(preset("transducer1"), t_rep_us=t_rep),
        qubit=StorageQubitParams(t_coh_us=t_coh),
        protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS),
        policy=DeliveryPolicy(t_del_us=t_del, n_parallel=n_parallel),
    )
    m = delivered_fidelity(replace(resolve(cfg), p_her=p_her, f_her=f_her))
    return m.p_success, m.f_del


def _ex1():
    return LinkConfig(
        transducer=preset("transducer1"),
        qubit=preset("qubit1"),
        protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS),
        policy=DeliveryPolicy(t_del_us=88.0),
    )


def _ex2():
    return LinkConfig(
        transducer=preset("transducer2"),
        qubit=preset("qubit2"),
        protocol=ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION),
        memory=MemoryParams(MemoryKind.SPIN_CAVITY, eta_mem=1.0, lifetime_us=1000.0),
        policy=DeliveryPolicy(t_del_us=400.0),
    )


def _ex3():
    return LinkConfig(
        transducer=preset("transducer2"),
        qubit=preset("qubit1"),
        protocol=ProtocolSpec(
            PhotonBasis.ONE_PHOTON, PumpMode.TMS, p_mo_override=0.02
        ),
        policy=DeliveryPolicy(t_del_us=15.0, n_parallel=20),
    )


def test_reference_link_metrics():
    m = delivered_fidelity(resolve(_ex1()))
    assert m.p_her == pytest.approx(0.01, rel=1e-12)
    assert m.f_her == pytest.approx(0.728, rel=1e-12)
    assert m.eta_link == pytest.approx(2.0, rel=1e-12)
    oracle_p, oracle_f = _oracle_point(0.01, 0.728, 88.0, 1.0, 200.0)
    assert m.p_success == pytest.approx(oracle_p, rel=1e-12)
    assert m.f_del == pytest.approx(oracle_f, rel=1e-12)
    assert m.p_success == pytest.approx(0.587050329, abs=5e-10)
    assert m.f_del == pytest.approx(0.605113212, abs=5e-10)


def test_memory_link_metrics():
    m = delivered_fidelity(resolve(_ex2()))
    assert m.p_her == pytest.approx(0.02375, rel=1e-12)
    assert m.p_success == pytest.approx(0.9999332549974261, rel=1e-12)
    assert m.f_del == pytest.approx(0.9059667940506129, rel=1e-12)


def test_parallel_link_metrics():
    m = delivered_fidelity(resolve(_ex3()))
    assert m.p_her == pytest.approx(0.02, rel=1e-12)
    assert m.eta_link == pytest.approx(4.0, rel=1e-12)
    oracle_p, oracle_f = _oracle_point(0.02, 0.921975, 15.0, 1.0, 200.0, n_parallel=20)
    assert m.p_success == pytest.approx(oracle_p, rel=1e-12)
    assert m.f_del == pytest.approx(oracle_f, rel=1e-12)


def test_delivery_point_matches_oracle_random():
    rng = np.random.default_rng(314)
    for _ in range(200):
        p_her = rng.uniform(1e-4, 0.3)
        f_her = rng.uniform(0.4, 1.0)
        t_rep = rng.uniform(0.2, 5.0)
        t_del = t_rep * rng.uniform(1.0, 150.0)
        t_coh = rng.uniform(5.0, 5000.0)
        n = int(rng.integers(1, 30))
        got = _point(p_her, f_her, t_del, t_rep, t_coh, n_parallel=n)
        want = _oracle_point(p_her, f_her, t_del, t_rep, t_coh, n_parallel=n)
        assert got[0] == pytest.approx(want[0], rel=1e-10, abs=1e-14)
        assert got[1] == pytest.approx(want[1], rel=1e-10)


def test_delivery_point_degenerate_ratio():
    """When the retry and decay factors coincide the split-sum limit applies."""
    t_rep, t_coh = 1.0, 100.0
    d = math.exp(-t_rep / t_coh)
    p_her = 1.0 - d  # makes (1 - q) == d exactly
    got = _point(p_her, 0.9, 50.0, t_rep, t_coh)
    want = _oracle_point(p_her, 0.9, 50.0, t_rep, t_coh)
    assert got[0] == pytest.approx(want[0], rel=1e-12)
    assert got[1] == pytest.approx(want[1], rel=1e-9)
    # continuity: a hair away from the degenerate point lands at the same value
    near = _point(p_her * (1 + 1e-10), 0.9, 50.0, t_rep, t_coh)
    assert near[1] == pytest.approx(got[1], rel=1e-7)


def test_delivery_point_infinite_coherence():
    got = _point(0.05, 0.9, 40.0, 1.0, math.inf)
    p_success = 1.0 - 0.95**40
    assert got[0] == pytest.approx(p_success, rel=1e-12)
    assert got[1] == pytest.approx(0.5 + 0.4 * p_success, rel=1e-12)


def test_delivery_point_rejects_short_timeout():
    # resolve rejects a t_del shorter than one attempt period
    with pytest.raises(ConfigError):
        _point(0.05, 0.9, 0.5, 1.0, 200.0)


def test_configs_match_oracle_random():
    """Random valid configs agree with the literal sum end to end."""
    rng = np.random.default_rng(2718)
    checked = 0
    while checked < 60:
        t = TransducerParams(
            name="r",
            eta_mw=rng.uniform(0.3, 1.0),
            p_mo=rng.uniform(0.005, 0.2),
            eta_det=rng.uniform(0.3, 1.0),
            n_th=rng.uniform(0.0, 0.05),
            t_rep_us=rng.uniform(0.5, 2.0),
        )
        q = StorageQubitParams(t_coh_us=rng.uniform(50.0, 3000.0))
        basis = PhotonBasis.ONE_PHOTON if rng.random() < 0.5 else PhotonBasis.TWO_PHOTON
        spec = ProtocolSpec(basis, PumpMode.TMS)
        n_par = int(rng.integers(1, 10))
        t_del = t.t_rep_us * rng.uniform(1.0, 120.0)
        cfg = LinkConfig(
            transducer=t,
            qubit=q,
            protocol=spec,
            policy=DeliveryPolicy(t_del_us=t_del, n_parallel=n_par),
        )
        try:
            m = delivered_fidelity(resolve(cfg))
        except ModelDomainError:
            continue
        want = _oracle_point(m.p_her, m.f_her, t_del, t.t_rep_us, q.t_coh_us, n_par)
        assert m.p_success == pytest.approx(want[0], rel=1e-10, abs=1e-14)
        assert m.f_del == pytest.approx(want[1], rel=1e-10)
        bd = infidelity_breakdown(resolve(cfg))
        assert bd["total"] == pytest.approx(1.0 - m.f_del, rel=1e-10)
        parts = bd["protocol"] + bd["thermal"] + bd["decoherence"] + bd["fallback"]
        assert parts == pytest.approx(bd["total"], rel=1e-10)
        assert min(bd.values()) >= -1e-15
        checked += 1


def test_breakdown_reference_values():
    bd = infidelity_breakdown(resolve(_ex3()))
    assert bd["protocol"] == pytest.approx(0.069, rel=1e-12)
    assert bd["thermal"] == pytest.approx(0.009025, rel=1e-12)
    assert bd["decoherence"] == pytest.approx(0.024541751, abs=5e-10)
    assert bd["fallback"] == pytest.approx(0.000984259079, abs=5e-13)
    assert bd["total"] == pytest.approx(0.10355101, abs=5e-9)
    # the protocol term dominates both noise terms for this operating point
    assert bd["protocol"] > bd["thermal"]
    assert bd["protocol"] > bd["decoherence"]


def test_breakdown_below_half_rescaled():
    # large alpha drives f_her under 0.5; delivered state pinned at 0.5
    cfg = LinkConfig(
        transducer=preset("transducer1"),
        qubit=preset("qubit1"),
        protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.UPCONVERSION, alpha=0.6),
        policy=DeliveryPolicy(t_del_us=50.0),
    )
    m = delivered_fidelity(resolve(cfg))
    assert m.f_del == 0.5
    bd = infidelity_breakdown(resolve(cfg))
    assert bd["decoherence"] == 0.0
    assert bd["fallback"] == 0.0
    assert bd["total"] == pytest.approx(0.5, rel=1e-12)
    assert bd["protocol"] + bd["thermal"] == pytest.approx(0.5, rel=1e-12)
    # relative split of the two physical terms is preserved by the rescale
    i_prot, i_th_weighted = 0.6, 0.1 / (0.6 * 0.8) / 2
    assert bd["protocol"] / bd["thermal"] == pytest.approx(
        i_prot / i_th_weighted, rel=1e-12
    )


def test_delivered_fidelity_never_below_half():
    rng = np.random.default_rng(99)
    for _ in range(100):
        p = rng.uniform(1e-4, 0.5)
        f = rng.uniform(0.0, 1.0)
        t_del = rng.uniform(1.0, 200.0)
        _, f_del = _point(p, f, t_del, 1.0, rng.uniform(1.0, 100.0))
        assert f_del >= 0.5


@pytest.mark.parametrize(
    "name, k_rounds", [("ex1", 88), ("ex2", 400), ("ex3", 15), ("lattice", 15)]
)
def test_curve_contains_policy_point(name, k_rounds):
    """Each shipped t_del lies on the grid, so the policy point is the grid's
    row K to the last bit: p_success, f_del and every breakdown component."""
    link = resolve(parse_config(EXAMPLES / f"{name}.json").link)
    assert link.k_rounds == k_rounds
    curve = delivery_curve(link)
    assert curve.t_del_us[0] == pytest.approx(1.0)
    assert len(curve.t_del_us) == len(curve.p_success) == len(curve.f_del)
    row = k_rounds - 1
    assert curve.t_del_us[row] == link.config.policy.t_del_us
    m = delivered_fidelity(link)
    assert (curve.p_success[row], curve.f_del[row]) == (m.p_success, m.f_del)
    _, parts = infidelity_breakdown_curve(link, curve)
    point = infidelity_breakdown(link)
    assert {key: parts[key][row] for key in point} == point
    assert np.all(np.diff(curve.p_success) >= -1e-15)


def test_breakdown_curve_sums_to_total():
    link = resolve(_ex3())
    curve = delivery_curve(link, k_max=200)
    t_grid, parts = infidelity_breakdown_curve(link, curve)
    np.testing.assert_allclose(t_grid, curve.t_del_us)
    total = (
        parts["protocol"]
        + parts["thermal"]
        + parts["decoherence"]
        + parts["fallback"]
    )
    np.testing.assert_allclose(total, parts["total"], rtol=1e-10)
    np.testing.assert_allclose(parts["total"], 1.0 - curve.f_del, rtol=1e-10)
    # the constant components are read-only views of the point breakdown
    point = infidelity_breakdown(link)
    for name in ("protocol", "thermal"):
        assert parts[name].shape == t_grid.shape
        assert not parts[name].flags.writeable
        assert (parts[name] == point[name]).all()


def test_optimal_delivery_time_reference_links():
    assert optimal_delivery_time(resolve(_ex1())) == pytest.approx(
        (138.0, 0.6145071982709199), rel=1e-12
    )
    assert optimal_delivery_time(resolve(_ex2())) == pytest.approx(
        (173.0, 0.9371401823558896), rel=1e-12
    )
    assert optimal_delivery_time(resolve(_ex3())) == pytest.approx(
        (11.0, 0.9004469827172934), rel=1e-12
    )


def test_optimal_is_grid_argmax():
    cfg = _ex1()
    curve = delivery_curve(resolve(cfg))
    t_star, f_star = optimal_delivery_time(resolve(cfg))
    best = int(np.argmax(curve.f_del))
    assert t_star == pytest.approx(curve.t_del_us[best])
    assert f_star == pytest.approx(curve.f_del[best], rel=1e-15)


ONE_UP = (PhotonBasis.ONE_PHOTON, PumpMode.UPCONVERSION)
ONE_TMS = (PhotonBasis.ONE_PHOTON, PumpMode.TMS)
TWO_UP = (PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION)
TWO_TMS = (PhotonBasis.TWO_PHOTON, PumpMode.TMS)
LINK_KINDS = [
    (protocol, memory, model)
    for protocol, memory in [
        (ONE_UP, None),
        (ONE_TMS, None),
        (TWO_UP, None),
        (TWO_UP, MemoryKind.SPIN_CAVITY),
        (TWO_TMS, None),
        (TWO_TMS, MemoryKind.CATCH_RELEASE),
    ]
    for model in FidelityModel
]


def _log10_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _probe(transducer, qubit, protocol, n_parallel=1, memory=None, alpha=None,
           p_mo_override=None, model=FidelityModel.THERMAL_HALF):
    """A link whose policy passes validation whatever the memory lifetime."""
    return LinkConfig(
        transducer=transducer,
        qubit=qubit,
        protocol=ProtocolSpec(*protocol, alpha=alpha, p_mo_override=p_mo_override),
        policy=DeliveryPolicy(
            t_del_us=transducer.t_rep_us, n_parallel=n_parallel, fidelity_model=model
        ),
        memory=memory,
    )


def _draw_probe(draw, protocol, memory_kind, model):
    """A random link of the given kind and a search grid length for it."""
    t_rep = draw(_log10_uniform(-2, 2))
    transducer = TransducerParams(
        name="h",
        eta_mw=draw(st.floats(0.5, 1.0)),
        p_mo=draw(_log10_uniform(-6, 0)),
        eta_det=draw(st.floats(0.05, 1.0)),
        n_th=draw(st.just(0.0) | _log10_uniform(-6, -2)),
        t_rep_us=t_rep,
    )
    memory = None
    if memory_kind is not None:
        memory = MemoryParams(
            memory_kind,
            eta_mem=draw(st.floats(0.05, 1.0)),
            lifetime_us=t_rep * draw(_log10_uniform(0, 4)),
        )
    infinite = draw(st.booleans())
    t_coh = math.inf if infinite else t_rep * draw(_log10_uniform(-1, 4))
    k_max = draw(st.integers(1, 3000) if infinite else st.none() | st.integers(1, 3000))
    cfg = _probe(
        transducer,
        StorageQubitParams(t_coh_us=t_coh),
        protocol,
        n_parallel=draw(
            st.integers(1, 20) | st.integers(1, MAX_TRANSDUCERS_PER_MODULE)
        ),
        memory=memory,
        alpha=draw(_log10_uniform(-3, -0.3)) if protocol == ONE_UP else None,
        model=model,
    )
    return cfg, k_max


LINK_KIND_IDS = [
    f"{p[0].value}-{p[1].value}-{m and m.value}-{f.value}" for p, m, f in LINK_KINDS
]


@pytest.mark.parametrize("protocol,memory_kind,model", LINK_KINDS, ids=LINK_KIND_IDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_optimal_matches_grid_oracle(protocol, memory_kind, model, data):
    """The closed-form optimum equals the full-grid first argmax, bit for bit."""
    cfg, k_max = _draw_probe(data.draw, protocol, memory_kind, model)
    try:
        want = grid_optimal_delivery_time(cfg, k_max)
    except ModelDomainError:
        with pytest.raises(ModelDomainError):
            optimal_delivery_time(resolve(cfg), k_max=k_max)
        return
    assert optimal_delivery_time(resolve(cfg), k_max=k_max) == want


def _width(cfg, n_parallel):
    return replace(cfg, policy=replace(cfg.policy, n_parallel=n_parallel))


@pytest.mark.parametrize("protocol,memory_kind,model", LINK_KINDS, ids=LINK_KIND_IDS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_optimal_at_many_widths_matches_grid_oracle(protocol, memory_kind, model, data):
    """The array pass over a set of widths equals the grid oracle at each width."""
    cfg, k_max = _draw_probe(data.draw, protocol, memory_kind, model)
    widths = [1, 2] + data.draw(
        st.lists(st.integers(1, MAX_TRANSDUCERS_PER_MODULE), max_size=4)
    )
    try:
        link = resolve(cfg)
    except ModelDomainError:
        return
    t_del, f_del = optimal_delivery_time(link, k_max, n_parallel=np.array(widths))
    got = list(zip(t_del.tolist(), f_del.tolist()))
    assert got == [grid_optimal_delivery_time(_width(cfg, n), k_max) for n in widths]


def test_optimal_width_argument_shapes():
    """An int width gives floats, as the policy's own width does; an array of
    widths gives arrays of its shape."""
    cfg = _ex1()
    link = resolve(cfg)
    at_5 = optimal_delivery_time(link, n_parallel=5)
    assert at_5 == optimal_delivery_time(resolve(_width(cfg, 5)))
    assert all(type(x) is float for x in at_5)
    t_del, f_del = optimal_delivery_time(link, n_parallel=np.array([[1, 5], [7, 9]]))
    assert t_del.shape == f_del.shape == (2, 2)
    assert (t_del[0, 1], f_del[0, 1]) == at_5


def test_optimal_refuses_widths_that_are_not_whole_channels():
    """A width below 1, a float or a bool is not a channel count: ConfigError.
    Unchecked, a width of 0 has q = 0 and a negative one a negative q. Any
    integer dtype is a count."""
    link = resolve(_ex3())
    for bad in (0, -1, 2.0, True, np.array([-3, 1.5]), np.array([1, 0]), np.array([2.0, 3.0])):
        with pytest.raises(ConfigError, match="integer >= 1"):
            optimal_delivery_time(link, n_parallel=bad)
    widths = np.array([1, 2, 3], dtype=np.uint8)
    t_del, f_del = optimal_delivery_time(link, n_parallel=widths)
    assert [(t, f) for t, f in zip(t_del.tolist(), f_del.tolist())] == [
        optimal_delivery_time(link, n_parallel=n) for n in (1, 2, 3)
    ]


def test_optimal_scatters_each_distinct_q_to_its_widths():
    """On the lattice link q rounds to 1.0 and x reaches its clamp at wide
    widths, so 3000 widths have fewer distinct (q, m, x) lanes than widths.
    Shuffled and repeated widths in one call get, bit for bit, the optimum
    of a call at each width alone."""
    link = resolve(_ex3())
    rng = np.random.default_rng(3)
    widths = rng.permutation(np.concatenate([np.arange(1, 3001), rng.integers(1, 3001, 1000)]))
    t_del, f_del = optimal_delivery_time(link, n_parallel=widths)
    alone = {n: optimal_delivery_time(link, n_parallel=n) for n in set(widths.tolist())}
    assert list(zip(t_del.tolist(), f_del.tolist())) == [alone[n] for n in widths.tolist()]


def _special_cases():
    t1, t2 = preset("transducer1"), preset("transducer2")
    ex1_link = _probe(t1, preset("qubit1"), ONE_TMS)
    return [
        # f_del is flat at 1/2
        pytest.param(
            _probe(TransducerParams(0.5, 0.1, 0.5, 0.001, 1.0, name="flat"),
                   preset("qubit1"), ONE_TMS),
            None, 1.0, id="f_her-at-most-half",
        ),
        # (1 - 0.02)^5000 rounds to 0, so q = 1 and r = 0
        pytest.param(
            _probe(t2, preset("qubit1"), ONE_TMS, n_parallel=5000, p_mo_override=0.02),
            None, 1.0, id="q-equals-one",
        ),
        # d = exp(ln 0.99) sits within an ulp of r = 0.99
        pytest.param(
            _probe(t1, StorageQubitParams(t_coh_us=-1.0 / math.log(0.99)), ONE_TMS),
            None, 99.0, id="r-equals-d",
        ),
        # d = 1: 1 - r^k reaches its float maximum at k = 90, long before k_max
        pytest.param(
            _probe(t2, StorageQubitParams(t_coh_us=math.inf), ONE_TMS,
                   n_parallel=20, p_mo_override=0.02),
            2000, 90.0, id="infinite-coherence",
        ),
        # q ~ 1e-10, d = 1/2: f_del is flat in floats from k = 21 to past the
        # real peak near 33, so the first maximum is left of the window; 21
        # is also the first maximum of the exact values rounded to doubles
        pytest.param(
            _probe(TransducerParams(1.0, 2.8e-5, 0.5, 0.001, 1.0, name="weak"),
                   StorageQubitParams(t_coh_us=1.0 / math.log(2.0)), TWO_UP),
            100, 21.0, id="float-plateau-before-peak",
        ),
        # the unclipped optimum is 138 us
        pytest.param(ex1_link, 50, 50.0, id="clipped-by-k-max"),
        # the unclipped optimum is 173 us
        pytest.param(
            _probe(t2, preset("qubit2"), TWO_UP,
                   memory=MemoryParams(MemoryKind.SPIN_CAVITY, 1.0, 100.0)),
            None, 100.0, id="clipped-by-memory-lifetime",
        ),
    ]


@pytest.mark.parametrize("cfg,k_max,t_star", _special_cases())
def test_optimal_special_cases_match_grid_oracle(cfg, k_max, t_star):
    got = optimal_delivery_time(resolve(cfg), k_max=k_max)
    assert got == grid_optimal_delivery_time(cfg, k_max)
    assert got[0] == t_star


def _dead_link():
    """p_her = 0: no herald ever arrives, and f_del is 1/2 at every t_del."""
    return LinkConfig(
        transducer=TransducerParams(0.8, 0.0, 0.5, 0.01, 1.0, name="dead"),
        qubit=preset("qubit1"),
        protocol=ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION),
        policy=DeliveryPolicy(t_del_us=50.0),
    )


def test_optimal_requires_positive_herald():
    with pytest.raises(NoOptimumError):
        optimal_delivery_time(resolve(_dead_link()))


def test_min_time_to_fidelity():
    assert min_time_to_fidelity(resolve(_ex1()), 0.55) == pytest.approx(27.0)
    assert min_time_to_fidelity(resolve(_ex2()), 0.90) == pytest.approx(86.0)
    assert min_time_to_fidelity(resolve(_ex3()), 0.90) == pytest.approx(11.0)


def test_min_time_unattainable_reports_best():
    with pytest.raises(UnattainableError) as err:
        min_time_to_fidelity(resolve(_ex1()), 0.70)
    assert "0.61" in str(err.value)


def _targets(draw, f_del):
    """Targets at grid values, one ulp below them, at random and past the max."""
    picks = draw(st.lists(st.integers(0, len(f_del) - 1), min_size=1, max_size=3))
    values = [float(f_del[i]) for i in picks]
    targets = values + [math.nextafter(v, 0.0) for v in values]
    targets.append(draw(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)))
    targets.append(math.nextafter(float(f_del.max()), 1.0))
    return targets


@pytest.mark.parametrize("protocol,memory_kind,model", LINK_KINDS, ids=LINK_KIND_IDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_min_time_matches_grid_oracle(protocol, memory_kind, model, data):
    """The bisection equals the full grid's first hit, bit for bit; on a miss
    it reports the grid's max."""
    cfg, k_max = _draw_probe(data.draw, protocol, memory_kind, model)
    try:
        link = resolve(cfg)
    except ModelDomainError:
        return
    _, f_del = grid_f_del(cfg, grid_k_max(cfg, k_max))
    for target in _targets(data.draw, f_del):
        if not 0.5 < target < 1.0:
            with pytest.raises(ModelDomainError):
                min_time_to_fidelity(link, target, k_max)
            continue
        t_del, f_max = grid_min_time_to_fidelity(cfg, target, k_max)
        if t_del is not None:
            assert min_time_to_fidelity(link, target, k_max) == t_del
            continue
        with pytest.raises(UnattainableError) as err:
            min_time_to_fidelity(link, target, k_max)
        assert str(err.value).endswith(f"best f_del is {f_max:.6f}")


@pytest.mark.parametrize(
    "cfg",
    [
        _dead_link(),
        _probe(TransducerParams(0.5, 0.1, 0.5, 0.001, 1.0, name="flat"),
               preset("qubit1"), ONE_TMS),
    ],
    ids=["p_her-zero", "f_her-at-most-half"],
)
def test_min_time_flat_half_is_unattainable(cfg):
    """f_del is 1/2 at every t_del: no target is met, and p_her = 0 gives
    this error, not the optimum's NoOptimumError."""
    assert grid_min_time_to_fidelity(cfg, 0.51) == (None, 0.5)
    with pytest.raises(UnattainableError) as err:
        min_time_to_fidelity(resolve(cfg), 0.51)
    assert str(err.value).endswith("best f_del is 0.500000")


def test_min_time_target_domain():
    for bad in (0.5, 0.4, 1.0, 1.2):
        with pytest.raises(ModelDomainError):
            min_time_to_fidelity(resolve(_ex1()), bad)


def test_infinite_coherence_gets_the_default_grid():
    """Ten coherence times are infinite, so the default grid is the one that
    covers 1000 points and twice t_del, and the searches stop at 2**53."""
    cfg = LinkConfig(
        transducer=preset("transducer1"),
        qubit=StorageQubitParams(t_coh_us=math.inf),
        protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS),
        policy=DeliveryPolicy(t_del_us=88.0),
    )
    assert len(delivery_curve(resolve(cfg)).t_del_us) == 1000
    assert optimal_delivery_time(resolve(cfg)) == optimal_delivery_time(resolve(cfg), 2**53)
    curve = delivery_curve(resolve(cfg), k_max=500)
    assert len(curve.t_del_us) == 500
    # without decay the fidelity only improves with patience
    assert np.all(np.diff(curve.f_del) >= -1e-15)


def test_p_her_override_replaces_formula_value():
    m = delivered_fidelity(resolve(replace(_ex2(), p_her_reference=0.03)))
    assert m.p_her == pytest.approx(0.03, rel=1e-12)
    assert m.eta_link == pytest.approx(75.0, rel=1e-12)
    assert m.p_success == pytest.approx(0.999994887, abs=5e-10)
    assert m.f_del == pytest.approx(0.904552652, abs=5e-10)
    oracle_p, oracle_f = _oracle_point(0.03, m.f_her, 400.0, 1.0, 2500.0)
    assert m.p_success == pytest.approx(oracle_p, rel=1e-12)
    assert m.f_del == pytest.approx(oracle_f, rel=1e-12)


def test_p_her_override_bounds():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            delivered_fidelity(resolve(replace(_ex1(), p_her_reference=bad)))
    # exactly 1.0 is a legal (if optimistic) reference value
    m = delivered_fidelity(resolve(replace(_ex1(), p_her_reference=1.0)))
    assert m.p_success == 1.0


def _ex1_at(p_her=None, t_coh=200.0, n_parallel=1, t_del=88.0):
    """ex1 (t_rep = 1 us) with the given storage time, width, delivery time
    and herald probability per channel (None: the formula's)."""
    cfg = _ex1()
    return replace(
        cfg,
        qubit=StorageQubitParams(t_coh_us=t_coh),
        policy=DeliveryPolicy(t_del_us=t_del, n_parallel=n_parallel),
        p_her_reference=p_her,
    )


@st.composite
def _mp_cases(draw):
    """(config, k, k_max) of ex1 with a drawn herald law and storage time.

    Half the links have |r - d| from 1e-12 to 1e-6, where the difference
    quotient of S cancels: T_coh is drawn and p_her set from r = d +- gap.
    The others draw p_her from 1e-12 to 0.5, or 1e-300, on their own.
    T_coh is at most 1e9 us and N at most 1e4. k keeps (k - 1) |max(a, b)|
    within 700, where S is a normal double.
    """
    n = draw(st.integers(1, 10) | st.integers(1, MAX_TRANSDUCERS_PER_MODULE))
    t_coh = draw(_log10_uniform(0, 9))
    if draw(st.booleans(), label="near r = d"):
        d = math.exp(-1.0 / t_coh)
        gap = draw(_log10_uniform(-12, -6))
        r = d + gap if d + gap < 1.0 and draw(st.booleans()) else d - gap
        p_her = -math.expm1(math.log(r) / n)
    else:
        p_her = draw(st.just(1e-300) | _log10_uniform(-12, math.log10(0.5)))
    m = max(n * math.log1p(-p_her), -1.0 / t_coh)
    k = draw(st.integers(1, min(10**7 - 1, 1 + math.floor(700.0 / -m))))
    return _ex1_at(p_her, t_coh, n, t_del=k + draw(st.floats(0.0, 0.99))), k


def _a_equals_b():
    """ex1 at p_her 0.01 with the T_coh at which b = -t_rep/T_coh equals
    a = log1p(-p_her) exactly, so x = 0 and S takes its limit."""
    a = float(np.log1p(-0.01))
    assert -1.0 / (-1.0 / a) == a
    return _ex1_at(0.01, -1.0 / a)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_mp_cases(), k_max=st.integers(1, 2000))
@example(case=(_a_equals_b(), 88), k_max=200)
def test_evaluator_matches_mpmath(case, k_max):
    """p_success, S and f_del within 1e-12 of mpmath at 200 bits; the peak
    within one round of mpmath's real argmax; decoherence exactly 0 at
    t_del = t_rep; and the search equals the first argmax of the
    evaluator's own grid. The explicit example has a = b exactly."""
    cfg, k = case
    link = resolve(cfg)
    n, t_coh, t_del = cfg.policy.n_parallel, cfg.qubit.t_coh_us, cfg.policy.t_del_us
    want_p, want_s, want_f = mp_point(link.p_her, n, 1.0, t_coh, link.f_her, k, t_del - k)
    m = delivered_fidelity(link)
    a, b, law = delivery._law(link, np.array([n]))
    s = delivery._decay_mass(law, np.array([float(k)]))[0]
    assert rel_error(m.p_success, want_p) <= 1e-12
    assert rel_error(s, want_s) <= 1e-12
    assert rel_error(m.f_del, want_f) <= 1e-12
    assert abs(delivery._peak_rounds(a, b)[0] - mp_peak(link.p_her, n, 1.0, t_coh)) <= 1.0
    first = _ex1_at(cfg.p_her_reference, t_coh, n, t_del=1.0)
    assert infidelity_breakdown(resolve(first))["decoherence"] == 0.0
    _, parts = infidelity_breakdown_curve(link, delivery_curve(link, k_max))
    assert parts["decoherence"][0] == 0.0
    assert optimal_delivery_time(link, k_max) == grid_optimal_delivery_time(cfg, k_max)


CORNERS = [
    pytest.param(_ex1_at(p_her, t_coh), id=f"t_coh={t_coh}-p_her={p_her}")
    for t_coh in (5e-324, 1e-300, 1e300, math.inf)
    for p_her in (None, 1.0, 1e-300, 5e-324)
] + [pytest.param(_a_equals_b(), id="a-equals-b")]


@pytest.mark.parametrize("cfg", CORNERS)
def test_every_delivery_function_at_the_extremes(cfg):
    """Storage times from the smallest subnormal to inf and herald
    probabilities from 1 down to the smallest subnormal: no warning, every
    value finite (eta_link is T_coh p_her / t_rep, inf at an infinite
    T_coh), f_del in [1/2, 1], p_success in [0, 1], and the components sum
    to the total."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        link = resolve(cfg)
        m = delivered_fidelity(link)
        point = infidelity_breakdown(link)
        curve = delivery_curve(link, k_max=200)
        _, parts = infidelity_breakdown_curve(link, curve)
        best = optimal_delivery_time(link, k_max=10**6)
        at_widths = optimal_delivery_time(link, 10**6, n_parallel=np.array([1, 2, 5000]))
        try:
            reached = [min_time_to_fidelity(link, 0.55, k_max=10**6)]
        except UnattainableError:
            reached = []
    values = [m.p_success, m.f_del, *point.values(), *best, *reached]
    values += [v for part in parts.values() for v in part.tolist()]
    values += [curve.p_success, curve.f_del, *at_widths]
    assert all(np.isfinite(v).all() for v in values)
    for p_success, f_del in [(m.p_success, m.f_del), (curve.p_success, curve.f_del)]:
        assert (0.0 <= np.min(p_success)) and (np.max(p_success) <= 1.0)
        assert (0.5 <= np.min(f_del)) and (np.max(f_del) <= 1.0)
    for bd in (point, parts):
        total = bd["protocol"] + bd["thermal"] + bd["decoherence"] + bd["fallback"]
        np.testing.assert_allclose(total, bd["total"], rtol=1e-10)
    assert parts["decoherence"][0] == 0.0


def test_tiny_herald_probability_keeps_its_digits():
    """At p_her 1e-300, 1 - p_her is 1.0, and a model that forms it prints
    p_success 0.0; the exact value at ex1's 88 rounds is 8.8e-299."""
    link = resolve(_ex1_at(1e-300))
    want = mp_point(1e-300, 1, 1.0, 200.0, link.f_her, 88)[0]
    assert rel_error(delivered_fidelity(link).p_success, want) <= 1e-12
    assert delivered_fidelity(link).p_success == pytest.approx(8.8e-299, rel=1e-12)


def _nine_digit_texts(exact, ulps=4):
    """The %.9g text of every double within ulps ulp of exact, an mpf."""
    x = float(exact)
    near, lo, hi = [x], x, x
    for _ in range(ulps + 1):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        near += [lo, hi]
    with mpmath.workprec(PREC):
        return {"%.9g" % d for d in near if abs(d - exact) <= ulps * math.ulp(x)}


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_fallback_cells_are_correctly_rounded(tmp_path, name):
    """Every `fallback` cell of analyze's default breakdown prints a double
    within 4 ulp of gain r^k, in mpmath at 200 bits from the link's float
    p_her and f_her. Formed as gain (1 - p_success), 420 cells of ex2 and 957
    of ex3 printed other digits, 908 of them 0 for values down to 1e-176."""
    config = EXAMPLES / f"{name}.json"
    link = resolve(parse_config(config).link)
    assert cli.main(["analyze", "--config", str(config), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "infidelity_breakdown.csv", newline="") as handle:
        rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
    assert len(rows) >= 1000
    n = link.config.policy.n_parallel
    wrong = [
        (k, row["fallback"])
        for k, row in enumerate(rows, 1)
        if row["fallback"] not in _nine_digit_texts(mp_fallback(link.p_her, n, link.f_her, k))
    ]
    assert wrong == []
