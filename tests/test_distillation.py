"""Entanglement distillation maps checked against the density-matrix oracle."""

import numpy as np
import pytest

from dm_oracle import dejmps_oracle
from mc_oracle import run_distill_trials
from translink import (
    BellDiagonalState,
    ConfigError,
    DegenerateInputError,
    DistillMode,
    ModelDomainError,
    calibrated_distill,
    nested_distill,
    recurrence_ladder,
    recurrence_round,
)


def test_closed_form_matches_density_matrix_oracle():
    """1000 random Bell-diagonal pairs: closed form == 4-qubit simulation."""
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        pa = rng.dirichlet(np.ones(4))
        pb = rng.dirichlet(np.ones(4))
        want_n, want_out = dejmps_oracle(tuple(pa), tuple(pb))
        got = recurrence_round(
            BellDiagonalState(*pa), BellDiagonalState(*pb)
        )
        assert got.success_probability == pytest.approx(want_n, rel=1e-12, abs=1e-13)
        for got_p, want_p in zip(got.state.as_tuple(), want_out):
            assert got_p == pytest.approx(want_p, rel=1e-12, abs=1e-12)


def test_werner_085_round():
    w = BellDiagonalState.werner(0.85)
    out = recurrence_round(w, w)
    assert out.success_probability == pytest.approx(0.82, rel=1e-12)
    assert out.state.as_tuple() == pytest.approx(
        (
            0.8841463414634146,
            0.10365853658536585,
            0.006097560975609756,
            0.006097560975609756,
        ),
        rel=1e-12,
    )


def test_perfect_state_is_fixed_point():
    perfect = BellDiagonalState(1.0, 0.0, 0.0, 0.0)
    out = recurrence_round(perfect, perfect)
    assert out.success_probability == 1.0
    assert out.state.as_tuple() == (1.0, 0.0, 0.0, 0.0)


def test_degenerate_inputs_rejected():
    a = BellDiagonalState(0.0, 0.0, 1.0, 0.0)
    b = BellDiagonalState(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateInputError):
        recurrence_round(a, b)


def test_bell_diagonal_validation():
    with pytest.raises(ConfigError):
        BellDiagonalState(-0.1, 0.5, 0.3, 0.3)
    with pytest.raises(ConfigError):
        BellDiagonalState(0.5, 0.5, 0.05, 0.05)
    w = BellDiagonalState.werner(0.85)
    assert w.fidelity == 0.85
    assert sum(w.as_tuple()) == pytest.approx(1.0, abs=1e-15)


def test_calibrated_anchors():
    assert calibrated_distill(0.91, 0) == pytest.approx(0.91, rel=1e-15)
    assert calibrated_distill(0.91, 4) == pytest.approx(0.991, rel=1e-12)
    assert calibrated_distill(0.91, 8) == pytest.approx(0.9991, rel=1e-12)
    assert calibrated_distill(1.0, 5) == 1.0


def test_calibrated_monotone():
    rng = np.random.default_rng(5)
    for _ in range(100):
        f = rng.uniform(0.5001, 0.9999)
        r = int(rng.integers(0, 9))
        assert calibrated_distill(f, r + 1) > calibrated_distill(f, r)
        assert calibrated_distill(min(f + 0.01, 1.0), r) >= calibrated_distill(f, r)


def test_calibrated_domain():
    with pytest.raises(ModelDomainError):
        calibrated_distill(0.5, 2)
    with pytest.raises(ModelDomainError):
        calibrated_distill(0.3, 2)
    with pytest.raises(ModelDomainError):
        calibrated_distill(1.2, 2)
    with pytest.raises(ConfigError):
        calibrated_distill(0.91, -1)


def test_recurrence_ladder_reference():
    ladder = recurrence_ladder(0.91, 4)
    assert [round(o.success_probability, 9) for o in ladder] == [
        0.8872,
        0.916358981,
        0.939695321,
        0.957474581,
    ]
    assert ladder[-1].state.fidelity == pytest.approx(0.9775462264585238, rel=1e-12)
    fids = [o.state.fidelity for o in ladder]
    assert fids == sorted(fids)
    assert fids[0] > 0.91


def test_recurrence_ladder_domain():
    with pytest.raises(ModelDomainError):
        recurrence_ladder(0.5, 3)
    with pytest.raises(ModelDomainError):
        recurrence_ladder(1.0001, 3)
    assert recurrence_ladder(0.8, 0) == []


def test_nested_distill_calibrated():
    res = nested_distill(0.91, 4, DistillMode.CALIBRATED)
    assert res.f_out == pytest.approx(0.991, rel=1e-12)
    assert res.pairs_nominal == 16
    assert res.pairs_expected == 16.0


def test_nested_distill_recurrence():
    res = nested_distill(0.91, 4, DistillMode.RECURRENCE)
    assert res.f_out == pytest.approx(0.9775462264585238, rel=1e-12)
    assert res.pairs_nominal == 16
    assert res.pairs_expected == pytest.approx(21.873510630433756, rel=1e-12)


def test_nested_distill_zero_rounds():
    for mode in DistillMode:
        res = nested_distill(0.8, 0, mode)
        assert res.f_out == pytest.approx(0.8)
        assert res.pairs_nominal == 1
        assert res.pairs_expected == 1.0


def test_nested_distill_rounds_bounded():
    """Rounds share the range of policy.distill_rounds, so 2**rounds stays small."""
    for mode in DistillMode:
        assert nested_distill(0.9, 10, mode).pairs_nominal == 1024
        for bad in (-1, 11, 2000, 10**20):
            with pytest.raises(ConfigError):
                nested_distill(0.9, bad, mode)
            with pytest.raises(ConfigError):
                run_distill_trials(0.9, bad, 10, seed=0)


def test_recurrence_improves_any_werner_above_half():
    rng = np.random.default_rng(77)
    for _ in range(200):
        f = rng.uniform(0.5001, 0.999)
        w = BellDiagonalState.werner(f)
        out = recurrence_round(w, w)
        assert out.state.fidelity > f
