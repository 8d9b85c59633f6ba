"""Acceptance gate: seven criteria, one pass/fail line each, all under 60 s.

Run with -s to see the verdict lines; under plain pytest each criterion is
one test whose PASSED/FAILED status is the verdict.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from dm_oracle import dejmps_oracle
from translink import (
    ArchitectureSpec,
    BellDiagonalState,
    DeliveryPolicy,
    DistillMode,
    LinkConfig,
    MemoryKind,
    MemoryParams,
    ModelDomainError,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    StorageQubitParams,
    TransducerParams,
    analyze_protocol,
    calibrated_distill,
    circuit_cut_comparison,
    cli,
    cryostat_budget_check,
    delivered_fidelity,
    edge_qubit_count,
    infidelity_breakdown,
    lattice_surgery_plan,
    nested_distill,
    optimal_delivery_time,
    preset,
    recurrence_round,
    resolve,
    run_trials,
    tradeoff_surface,
)

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
N_TRIALS = 100_000
N_SEEDS = 100


class _verdict:
    """Prints exactly one PASS/FAIL line for the wrapped criterion."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE criterion {self.number} ({self.label}): {status}")
        return False


def _example1():
    return LinkConfig(
        transducer=preset("transducer1"),
        qubit=preset("qubit1"),
        protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS),
        policy=DeliveryPolicy(t_del_us=88.0),
    )


def _example2():
    return LinkConfig(
        transducer=preset("transducer2"),
        qubit=preset("qubit2"),
        protocol=ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION),
        memory=MemoryParams(MemoryKind.SPIN_CAVITY, eta_mem=1.0, lifetime_us=1000.0),
        policy=DeliveryPolicy(t_del_us=400.0),
    )


def _example3():
    return LinkConfig(
        transducer=preset("transducer2"),
        qubit=preset("qubit1"),
        protocol=ProtocolSpec(
            PhotonBasis.ONE_PHOTON, PumpMode.TMS, p_mo_override=0.02
        ),
        policy=DeliveryPolicy(t_del_us=15.0, n_parallel=20),
    )


def test_criterion_1_example1_reproduction():
    with _verdict(1, "example-1 link reproduction"):
        start = time.perf_counter()
        m = delivered_fidelity(resolve(_example1()))
        assert m.i_prot == pytest.approx(0.208, abs=0.005)
        assert m.i_th == pytest.approx(0.128, abs=0.005)
        assert m.f_her == pytest.approx(0.728, abs=0.010)
        assert m.f_del >= 0.55  # clears the classical threshold at 88 us
        assert time.perf_counter() - start < 1.0


def test_criterion_2_example2_reproduction(tmp_path, capsys):
    with _verdict(2, "example-2 memory link + flagged herald discrepancy"):
        m = delivered_fidelity(resolve(replace(_example2(), p_her_reference=0.03)))
        assert m.f_del == pytest.approx(0.91, abs=0.02)
        # the formula herald probability deviates from the quoted 0.03
        # by more than the flag threshold but stays within 25%
        code = cli.main(
            ["analyze", "--config", str(EXAMPLES / "ex2.json"), "--out", str(tmp_path)]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        disc = doc["p_her_discrepancy"]
        assert disc is not None and disc["flagged"] is True
        assert abs(disc["relative_deviation"]) <= 0.25
        assert disc["reference_p_her"] == 0.03


def test_criterion_3_example3_reproduction(tmp_path, capsys):
    with _verdict(3, "example-3 parallel link, protocol-limited budget"):
        m = delivered_fidelity(resolve(_example3()))
        assert m.i_prot == pytest.approx(0.069, abs=0.005)
        assert m.f_del == pytest.approx(0.91, abs=0.02)
        bd = infidelity_breakdown(resolve(_example3()))
        assert bd["protocol"] > bd["thermal"]
        assert bd["protocol"] > bd["decoherence"]
        # the per-timeout component breakdown ships as a CSV artifact
        code = cli.main(
            ["analyze", "--config", str(EXAMPLES / "ex3.json"), "--out", str(tmp_path)]
        )
        capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "infidelity_breakdown.csv").read_text().splitlines()
        assert (
            lines[1]
            == "t_del_us,protocol,thermal,decoherence,fallback,total_infidelity"
        )
        assert len(lines) > 2


def test_criterion_4_distillation_calibration():
    with _verdict(4, "distillation calibration + density-matrix oracle"):
        assert calibrated_distill(0.91, 4) == pytest.approx(0.991, abs=0.001)
        nominal = nested_distill(0.91, 4, DistillMode.CALIBRATED)
        assert nominal.pairs_nominal == 16
        assert nominal.pairs_expected == 16.0

        rng = np.random.default_rng(12345)
        for _ in range(1000):
            pa = rng.dirichlet(np.ones(4))
            pb = rng.dirichlet(np.ones(4))
            want_n, want_out = dejmps_oracle(tuple(pa), tuple(pb))
            got = recurrence_round(BellDiagonalState(*pa), BellDiagonalState(*pb))
            assert abs(got.success_probability - want_n) < 1e-12
            for got_p, want_p in zip(got.state.as_tuple(), want_out):
                assert abs(got_p - want_p) < 1e-12


def test_criterion_5_mc_analytic_equivalence():
    with _verdict(5, "Monte Carlo vs analytic, 100 seeds x 3 examples"):
        cases = [
            (_example1(), None, 0.01, 88),
            (_example2(), 0.03, 0.03, 400),
            (_example3(), None, 1 - (1 - 0.02) ** 20, 15),
        ]
        for cfg, ref, q, k_rounds in cases:
            m = delivered_fidelity(resolve(replace(cfg, p_her_reference=ref)))
            lo = binom.ppf(0.00135, N_TRIALS, m.p_success)
            hi = binom.ppf(1 - 0.00135, N_TRIALS, m.p_success)
            passed = 0
            for seed in range(N_SEEDS):
                s = run_trials(resolve(replace(cfg, p_her_reference=ref)), N_TRIALS, seed)
                mean_ok = abs(s.mean_f_del - m.f_del) <= 3 * s.std_error
                successes = N_TRIALS - s.n_no_herald
                if mean_ok and lo <= successes <= hi:
                    passed += 1
            assert passed >= 99, f"only {passed}/100 seeds within 3 SE"

            # herald-round distribution vs the truncated geometric law
            s = run_trials(resolve(replace(cfg, p_her_reference=ref)), N_TRIALS, seed=0)
            expected = [
                N_TRIALS * (1 - q) ** (k - 1) * q for k in range(1, k_rounds + 1)
            ]
            expected.append(N_TRIALS * (1 - q) ** k_rounds)
            # the sparse histogram spread over rounds 1..K, then no herald
            observed = [0] * k_rounds + [s.n_no_herald]
            for k, count in zip(s.herald_rounds, s.herald_histogram):
                observed[k - 1] = count
            obs, exp = [], []
            acc_o = acc_e = 0.0
            for o, e in zip(observed, expected):
                acc_o += o
                acc_e += e
                if acc_e >= 5.0:
                    obs.append(acc_o)
                    exp.append(acc_e)
                    acc_o = acc_e = 0.0
            if acc_e:
                obs[-1] += acc_o
                exp[-1] += acc_e
            res = chisquare(obs, f_exp=np.array(exp) * (sum(obs) / sum(exp)))
            assert res.pvalue > 0.001


def test_criterion_6_planner_anchors():
    with _verdict(6, "planner anchors and envelopes"):
        assert edge_qubit_count(1000) == 32

        spec2 = ArchitectureSpec(1000, 1.0, 100_000, 0.90)
        plan2 = lattice_surgery_plan(spec2, resolve(_example2()))
        spec3 = ArchitectureSpec(1000, 1.0, 100_000, 0.89)
        plan3 = lattice_surgery_plan(spec3, resolve(_example3()))
        for plan in (plan2, plan3):
            assert 300 <= plan.transducers_per_link <= 400
        assert {plan2.transducers_per_link, plan3.transducers_per_link} == {300, 400}

        assert cryostat_budget_check(100, 100).total_in_envelope is True
        assert cryostat_budget_check(10, 10).total_in_envelope is True
        assert cryostat_budget_check(101, 100).total_in_envelope is False
        assert cryostat_budget_check(9, 10).total_in_envelope is False

        cut = circuit_cut_comparison(0.10, 100_000)
        assert cut.k_quantum == 50
        assert cut.k_classical == 10
        assert circuit_cut_comparison(0.299999, 100_000).advantage is True
        assert circuit_cut_comparison(0.30, 100_000).advantage is False


def test_criterion_7_property_suites():
    with _verdict(7, "cross-cutting property suites"):
        rng = np.random.default_rng(20240814)

        # p_her monotone in every efficiency; i_th monotone in n_th;
        # f_del non-increasing in n_th
        protocols = [
            ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.UPCONVERSION, alpha=0.3),
            ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS),
            ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION),
            ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.TMS),
        ]
        f_del_checked = 0
        for _ in range(150):
            eta_mw, eta_det = rng.uniform(0.5, 0.95, size=2)
            p_mo = rng.uniform(0.005, 0.1)
            n_th = rng.uniform(0.0, 0.05)
            base = TransducerParams(eta_mw, p_mo, eta_det, n_th, 1.0, name="b")
            spec = protocols[int(rng.integers(len(protocols)))]
            for field, value in (
                ("eta_mw", min(eta_mw * 1.1, 1.0)),
                ("p_mo", min(p_mo * 1.1, 1.0)),
                ("eta_det", min(eta_det * 1.1, 1.0)),
            ):
                kwargs = dict(
                    eta_mw=eta_mw, p_mo=p_mo, eta_det=eta_det, n_th=n_th
                )
                kwargs[field] = value
                kicked = TransducerParams(name="k", t_rep_us=1.0, **kwargs)
                assert analyze_protocol(kicked, spec).p_her >= (
                    analyze_protocol(base, spec).p_her - 1e-15
                )
            hotter = TransducerParams(
                eta_mw, p_mo, eta_det, n_th + 0.01, 1.0, name="h"
            )
            assert (
                analyze_protocol(hotter, spec).i_th >= analyze_protocol(base, spec).i_th
            )
            try:
                cold = delivered_fidelity(resolve(
                    LinkConfig(base, preset("qubit1"), spec,
                               DeliveryPolicy(t_del_us=40.0))
                ))
                hot = delivered_fidelity(resolve(
                    LinkConfig(hotter, preset("qubit1"), spec,
                               DeliveryPolicy(t_del_us=40.0))
                ))
            except ModelDomainError:
                continue
            assert hot.f_del <= cold.f_del + 1e-15
            f_del_checked += 1
        assert f_del_checked >= 50

        # delivered fidelity never dips under the classical fallback
        for _ in range(300):
            p_her, f_her = rng.uniform(1e-4, 0.5), rng.uniform(0.0, 1.0)
            t_del, t_coh = rng.uniform(1.0, 150.0), rng.uniform(1.0, 500.0)
            cfg = LinkConfig(
                preset("transducer1"),  # t_rep_us = 1
                StorageQubitParams(t_coh_us=t_coh),
                ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS),
                DeliveryPolicy(t_del_us=t_del, n_parallel=int(rng.integers(1, 8))),
            )
            link = replace(resolve(cfg), p_her=p_her, f_her=f_her)
            assert delivered_fidelity(link).f_del >= 0.5

        # a state is delivered on every trial (success or fallback)
        out = run_trials(resolve(_example3()), 5000, seed=17, keep_trials=True)
        assert len(out.trials) == 5000
        assert all(f_del >= 0.5 for f_del in out.trials.f_del[out.trials.code].tolist())
        assert out.p_success + out.n_no_herald / 5000 == 1.0

        # Pareto frontier equals the brute-force dominance filter
        protocol = ProtocolSpec(
            PhotonBasis.ONE_PHOTON, PumpMode.TMS, p_mo_override=0.02
        )
        for budget in (8, 32, 64):
            link = LinkConfig(
                preset("transducer2"), preset("qubit1"), protocol,
                DeliveryPolicy(t_del_us=1.0),
            )
            got = tradeoff_surface(budget, resolve(link), k_max=400)
            got_rows = [
                (p.n_links, p.rate_per_us, p.f_del, p.n_parallel,
                 p.distill_rounds, p.t_del_us)
                for p in got
            ]
            per_width = {}
            cands = []
            for n in range(1, budget + 1):
                for rounds in range(5):
                    n_links = budget // (n * 2**rounds)
                    if n_links < 1:
                        continue
                    if n not in per_width:
                        probe = LinkConfig(
                            preset("transducer2"), preset("qubit1"), protocol,
                            DeliveryPolicy(t_del_us=1.0, n_parallel=n),
                        )
                        per_width[n] = optimal_delivery_time(
                            resolve(probe), k_max=400
                        )
                    t_star, f_star = per_width[n]
                    f = (
                        calibrated_distill(f_star, rounds)
                        if rounds and f_star > 0.5
                        else f_star
                    )
                    cands.append((n_links, 1.0 / t_star, f, n, rounds, t_star))
            unique = {}
            for cand in sorted(cands, key=lambda c: (c[3], c[4])):
                unique.setdefault(cand[:3], cand)
            cands = list(unique.values())
            front = [
                c for c in cands
                if not any(
                    all(d[i] >= c[i] for i in range(3))
                    and any(d[i] > c[i] for i in range(3))
                    for d in cands
                )
            ]
            front.sort(key=lambda c: (-c[0], -c[1], -c[2]))
            assert got_rows == front

        # seeded Monte Carlo reruns are byte-identical across thread counts
        single = run_trials(
            resolve(_example3()), 70_000, seed=6, n_jobs=1, keep_trials=True
        )
        for jobs in (2, 4):
            threaded = run_trials(
                resolve(_example3()), 70_000, seed=6, n_jobs=jobs, keep_trials=True
            )
            assert threaded == single
