"""Counter-based Monte Carlo: determinism, statistics, and analytic agreement."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import mc_oracle
from mc_oracle import run_distill_trials
from translink import delivery, mcsim
from translink import (
    ConfigError,
    DeliveryPolicy,
    LinkConfig,
    MAX_TRIAL_DUMP,
    MemoryKind,
    MemoryParams,
    PhotonBasis,
    ProtocolSpec,
    PumpMode,
    StorageQubitParams,
    TransducerParams,
    delivered_fidelity,
    nested_distill,
    preset,
    resolve,
    run_trials,
    DistillMode,
)


def _ex1(t_del=88.0):
    return LinkConfig(
        transducer=preset("transducer1"),
        qubit=preset("qubit1"),
        protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS),
        policy=DeliveryPolicy(t_del_us=t_del),
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


def _ex2():
    """Example 2 as a resolved link, with its reference herald probability."""
    cfg = LinkConfig(
        transducer=preset("transducer2"),
        qubit=preset("qubit2"),
        protocol=ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION),
        memory=MemoryParams(MemoryKind.SPIN_CAVITY, eta_mem=1.0, lifetime_us=1000.0),
        policy=DeliveryPolicy(t_del_us=400.0),
    )
    return resolve(replace(cfg, p_her_reference=0.03))


def test_reference_run_regression():
    """The reference engine still draws the per-channel race stream."""
    stats_out, _, _ = mc_oracle.run_trials(resolve(_ex1()), 100_000, seed=7)
    assert stats_out.mean_f_del == pytest.approx(0.604782184, abs=5e-10)
    assert stats_out.std_error == pytest.approx(0.000284380109, abs=5e-13)
    assert stats_out.p_success == pytest.approx(0.58508, abs=1e-12)
    assert stats_out.n_no_herald == 100_000 - round(0.58508 * 100_000)


def test_library_stream_regression():
    """Two uniforms per trial, at stream positions 2t and 2t + 1."""
    stats_out = run_trials(resolve(_ex1()), 100_000, seed=7)
    assert stats_out.mean_f_del == pytest.approx(0.604772214, abs=5e-10)
    assert stats_out.std_error == pytest.approx(0.000284214881, abs=5e-13)
    assert stats_out.p_success == pytest.approx(0.58534, abs=1e-12)
    assert stats_out.n_no_herald == 100_000 - round(0.58534 * 100_000)


def _per_trial(cols):
    """Kept trials' columns with a value per trial: the table's read at the codes."""
    table = {name: getattr(cols, name)[cols.code] for name in ("herald_round", "tau_us", "f_del")}
    return {"winning_channel": cols.winning_channel, **table}


@st.composite
def _mc_links(draw):
    """A resolved link for the MC engines, with its edge cases drawn often.

    Infinite t_coh, f_her < 1/2 (no gain), K = 1, N = 1 and a reference
    p_her of 1 each have a branch of their own.
    """
    t_rep = draw(st.just(1.0) | st.floats(0.05, 20.0))
    k_rounds = draw(st.just(1) | st.integers(1, 500))
    t_coh = draw(st.just(math.inf) | st.floats(0.1, 1e3).map(lambda x: x * t_rep))
    cfg = LinkConfig(
        transducer=replace(preset("transducer1"), t_rep_us=t_rep),
        qubit=StorageQubitParams(t_coh_us=t_coh),
        protocol=ProtocolSpec(PhotonBasis.ONE_PHOTON, PumpMode.TMS),
        # half a period past K rounds, so that floor(t_del/t_rep) is K exactly
        policy=DeliveryPolicy(
            t_del_us=(k_rounds + 0.5) * t_rep,
            n_parallel=draw(st.just(1) | st.integers(2, 40)),
        ),
    )
    reference = draw(st.none() | st.just(1.0) | st.floats(1e-4, 0.6))
    link = resolve(replace(cfg, p_her_reference=reference))
    f_her = draw(st.none() | st.floats(0.25, 0.5) | st.floats(0.5, 1.0))
    return link if f_her is None else replace(link, f_her=f_her)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    link=_mc_links(),
    n_trials=st.integers(1, 3000),
    seed=st.integers(0, 2**64 - 1),
    keep_trials=st.booleans(),
    n_jobs=st.sampled_from([1, 2]),
    chunk=st.sampled_from([7, 256, mcsim._CHUNK]),
)
def test_matches_two_draw_oracle(link, n_trials, seed, keep_trials, n_jobs, chunk):
    """Skipped channel draws and per-round f_del change no bit of the output.

    The oracle draws both uniforms of every trial and evaluates f_del trial
    by trial. Kept columns, read at each trial's code, must match bit for
    bit; without kept trials, the rounds are compared through the histogram.
    """
    want, want_trials = mc_oracle.run_two_draw_trials(link, n_trials, seed)
    with mock.patch.object(mcsim, "_CHUNK", chunk):
        got = run_trials(link, n_trials, seed, n_jobs=n_jobs, keep_trials=keep_trials)
    assert got.mean_f_del == want.mean_f_del
    assert got.std_error == want.std_error
    assert got.p_success == want.p_success
    assert got.n_no_herald == want.n_no_herald
    assert got.herald_rounds == want.herald_rounds
    assert got.herald_histogram == want.herald_histogram
    if not keep_trials:
        assert got.trials is None
        return
    got_trials = _per_trial(got.trials)
    for name, column in want_trials.items():
        # bit patterns, so that -0.0 and 0.0 differ
        assert np.array_equal(got_trials[name].view(np.uint64), column.view(np.uint64))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    link=_mc_links(),
    n_trials=st.integers(1, 3000),
    seed=st.integers(0, 2**64 - 1),
    keep_trials=st.booleans(),
    n_jobs=st.sampled_from([1, 2, 3]),
    chunk=st.sampled_from([7, 256, 65536]),
)
def test_stats_do_not_depend_on_how_trials_are_counted(
    link, n_trials, seed, keep_trials, n_jobs, chunk
):
    """Kept or not, on any number of threads and in spans of any size (dense
    or sparse histograms, merged in any order), every field but the kept
    trials is equal to a one-thread run that keeps none."""
    want = run_trials(link, n_trials, seed)
    with mock.patch.object(mcsim, "_CHUNK", chunk):
        got = run_trials(link, n_trials, seed, n_jobs=n_jobs, keep_trials=keep_trials)
    assert (got.trials is not None) == keep_trials
    assert replace(got, trials=None) == want


@pytest.mark.parametrize("keep_trials", [False, True])
def test_round_cap_memory_follows_the_trials(keep_trials):
    """At the 10^7-round cap, 2000 trials count only the rounds that occur:
    no array spans the K + 1 rounds, which as int64 counts alone is 80 MB."""
    link = resolve(replace(_ex1(10_000_000.0), p_her_reference=1e-7))
    tracemalloc.start()
    try:
        out = run_trials(link, 2000, seed=9, n_jobs=2, keep_trials=keep_trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert len(out.herald_rounds) > 1000


def _dense(stats_out, k_rounds):
    """Herald counts at rounds 1..K, then the no-herald count."""
    counts = np.zeros(k_rounds + 1, dtype=np.int64)
    counts[np.array(stats_out.herald_rounds, dtype=np.int64) - 1] = stats_out.herald_histogram
    counts[k_rounds] = stats_out.n_no_herald
    return counts


def _homogeneity_pvalue(a, b):
    """Two-sample chi-square p-value for two count vectors over the same bins.

    Adjacent bins are pooled until each pooled bin holds at least 10 counts
    over both samples, so no expected cell is tiny.
    """
    cols, acc = [], np.zeros(2)
    for pair in zip(a, b):
        acc = acc + pair
        if acc.sum() >= 10:
            cols.append(acc)
            acc = np.zeros(2)
    if acc.sum():
        cols[-1] = cols[-1] + acc
    return stats.chi2_contingency(np.array(cols).T, correction=False).pvalue


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_engines_agree_in_distribution(name):
    """Inversion sampling and the per-channel race draw the same trial law.

    The engines read different stream positions under different seeds, so
    the two samples are independent.
    """
    link = {"ex1": resolve(_ex1()), "ex2": _ex2(), "ex3": resolve(_ex3())}[name]
    n = 100_000
    new = run_trials(link, n, seed=101, keep_trials=True)
    ref, *ref_trials = mc_oracle.run_trials(link, n, seed=202)
    k_rounds = {"ex1": 88, "ex2": 400, "ex3": 15}[name]
    rounds = [_dense(s, k_rounds) for s in (new, ref)]
    assert _homogeneity_pvalue(*rounds) > 0.001
    n_channels = link.config.policy.n_parallel
    if n_channels > 1:
        new_trials = _per_trial(new.trials)
        trials = [(new_trials["herald_round"], new_trials["winning_channel"]), ref_trials]
        chans = [np.bincount(c[c >= 0], minlength=n_channels) for _, c in trials]
        assert _homogeneity_pvalue(*chans) > 0.001
        # the joint law too: the channel must not depend on the round
        cells = k_rounds * n_channels
        joint = []
        for r, c in trials:
            hit = r > 0
            joint.append(np.bincount((r[hit] - 1) * n_channels + c[hit], minlength=cells))
        assert _homogeneity_pvalue(*joint) > 0.001


def _invert(u_round, u_chan, p_her, n_channels, k_rounds):
    """Herald rounds, then winning channels, as run_trials draws them: with
    the evaluator's log-miss at one channel and at N, and its q at N."""
    link = replace(resolve(_ex1()), p_her=p_her)
    (log_miss, a), _, law = delivery._law(link, [1, n_channels])
    rounds = mcsim._herald_rounds(u_round, a, k_rounds)
    return rounds, mcsim._winning_channels(u_chan, rounds, log_miss, law[0, 1], n_channels)


def test_inversion_edge_cases():
    """Certain and impossible heralds, extreme uniforms and extreme links."""
    zero = np.zeros(4)
    top = np.full(4, 1.0 - 2.0**-53)  # the largest uniform the stream yields
    for n_channels in (1, 20):
        # p = 0: a is -0.0, and u = 0 must not become 0/0
        for u in (zero, top):
            rounds, chans = _invert(u, u, 0.0, n_channels, 88)
            assert rounds.tolist() == [0] * 4 and chans.tolist() == [-1] * 4
        # p = 1: the floored a and log-miss give round 1 and channel 0
        for u in (zero, top):
            rounds, chans = _invert(u, u, 1.0, n_channels, 88)
            assert rounds.tolist() == [1] * 4 and chans.tolist() == [0] * 4
        # u = 0 heralds at once, on the first channel
        rounds, chans = _invert(zero, zero, 0.3, n_channels, 15)
        assert rounds.tolist() == [1] * 4 and chans.tolist() == [0] * 4

    # p_her = 1e-18: the rounds skipped overflow int64 and never herald,
    # except at u = 0
    rounds, chans = _invert(top, top, 1e-18, 1, 88)
    assert rounds.tolist() == [0] * 4 and chans.tolist() == [-1] * 4
    rounds, chans = _invert(zero, zero, 1e-18, 1, 88)
    assert rounds.tolist() == [1] * 4 and chans.tolist() == [0] * 4
    link = resolve(replace(_ex1(), p_her_reference=1e-18))
    out = run_trials(link, 10_000, seed=4, keep_trials=True)
    assert out.p_success == 0.0 and out.mean_f_del == 0.5
    assert (out.trials.winning_channel == -1).all()

    # 10^4 channels with p near 1: q rounds to 1 and the channel stays in range
    u = mcsim._uniforms(3, np.arange(20_000, dtype=np.uint64))
    for u_round, u_chan in ((u[0::2], u[1::2]), (top, top)):
        rounds, chans = _invert(u_round, u_chan, 1 - 1e-12, 10_000, 15)
        assert (rounds == 1).all()
        assert (chans >= 0).all() and (chans <= 1).all()
    assert (_invert(u[0::2], u[1::2], 1 - 1e-12, 10_000, 15)[1] == 0).all()

    # a span of 10^7 rounds: heralds spread over the whole span, none beyond
    k_rounds = 10_000_000
    u = mcsim._uniforms(5, np.arange(400_000, dtype=np.uint64))
    rounds, chans = _invert(u[0::2], None, 1e-7, 1, k_rounds)
    heralded = rounds > 0
    assert rounds.max() <= k_rounds and rounds.max() > k_rounds // 2
    assert (chans[heralded] == 0).all() and (chans[~heralded] == -1).all()
    q = -math.expm1(k_rounds * math.log1p(-1e-7))
    assert abs(heralded.mean() - q) <= 5 * math.sqrt(q * (1 - q) / 200_000)


def test_full_round_span_runs():
    """A link at the 10^7-round cap costs the same two draws per trial."""
    link = resolve(replace(_ex1(10_000_000.0), p_her_reference=1e-7))
    out = run_trials(link, 2000, seed=9, n_jobs=2, keep_trials=True)
    # the histogram holds only the rounds that heralded, ascending
    rounds = _per_trial(out.trials)["herald_round"]
    heralded = rounds[rounds > 0]
    want_rounds, want_counts = np.unique(heralded, return_counts=True)
    assert out.herald_rounds == tuple(want_rounds.tolist())
    assert out.herald_histogram == tuple(want_counts.tolist())
    assert sum(out.herald_histogram) + out.n_no_herald == 2000
    assert len(out.trials) == 2000
    assert rounds.max() <= 10_000_000


def test_agreement_with_closed_form():
    n = 100_000
    m = delivered_fidelity(resolve(_ex1()))
    out = run_trials(resolve(_ex1()), n, seed=7)
    assert abs(out.mean_f_del - m.f_del) <= 3 * out.std_error
    se_p = math.sqrt(m.p_success * (1 - m.p_success) / n)
    assert abs(out.p_success - m.p_success) <= 3 * se_p


def test_thread_count_does_not_change_results():
    link = resolve(_ex3())
    base = run_trials(link, 70_000, seed=11, n_jobs=1, keep_trials=True)
    for jobs in (2, 4):
        other = run_trials(link, 70_000, seed=11, n_jobs=jobs, keep_trials=True)
        assert other == base


def test_chunking_does_not_change_results(monkeypatch):
    """Chunks shrink as channels grow; the counter stream ignores them.

    A chunk below K counts the rounds sparsely, so the table may lose the
    rows of rounds that no trial drew; each trial's values stay the same.
    """
    link = resolve(_ex3())
    base = run_trials(link, 3000, seed=8, keep_trials=True)
    monkeypatch.setattr(mcsim, "_CHUNK", 7)
    other = run_trials(link, 3000, seed=8, keep_trials=True)
    assert replace(other, trials=None) == replace(base, trials=None)
    want = _per_trial(base.trials)
    for name, column in _per_trial(other.trials).items():
        assert np.array_equal(column, want[name])


def test_worker_exception_reaches_caller(monkeypatch):
    """A span that fails on a worker thread raises in the caller."""

    class SpanFailed(Exception):
        pass

    herald_rounds = mcsim._herald_rounds
    worker_ran = threading.Event()

    def fail_off_main_thread(*args):
        if threading.current_thread() is threading.main_thread():
            worker_ran.wait(timeout=10)  # leaves a span for the worker
            return herald_rounds(*args)
        worker_ran.set()
        raise SpanFailed("span failed")

    monkeypatch.setattr(mcsim, "_CHUNK", 10)
    monkeypatch.setattr(mcsim, "_herald_rounds", fail_off_main_thread)
    # were the failure lost, no reduction would read the span it left unset
    monkeypatch.setattr(mcsim, "_summarize", lambda *args: None)
    with pytest.raises(SpanFailed):
        run_trials(resolve(_ex1()), 40, seed=1, n_jobs=2)
    assert worker_ran.is_set()


@pytest.mark.parametrize("name", ["ex2", "ex3"])
def test_many_threads_lose_no_count(monkeypatch, name):
    """Eight jobs on fewer cores, switching threads every microsecond, over
    sparse (ex2, K = 400) and dense (ex3, K = 15) histograms of 64-trial
    spans: a span counted twice or lost, or a merge that drops a thread's
    histogram, changes the herald counts."""
    link = {"ex2": _ex2(), "ex3": resolve(_ex3())}[name]
    monkeypatch.setattr(mcsim, "_CHUNK", 64)
    want = run_trials(link, 20_000, seed=4)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: got.append(run_trials(link, 20_000, seed=4, n_jobs=8))
        )
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == [want]
    assert sum(want.herald_histogram) + want.n_no_herald == 20_000


def test_jobs_start_no_more_threads_than_spans(monkeypatch):
    """--jobs has no upper bound: 10^6 jobs over 3 spans make at most 3 threads."""
    made = []

    class CountedThread(threading.Thread):
        def __init__(self, *args, **kwargs):
            made.append(self)
            if len(made) > 3:  # fails before a fourth thread can start
                raise AssertionError("more threads than spans")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mcsim, "_CHUNK", 10)
    link = resolve(_ex3())
    base = run_trials(link, 30, seed=2, keep_trials=True)
    monkeypatch.setattr(threading, "Thread", CountedThread)
    assert run_trials(link, 30, seed=2, n_jobs=10**6, keep_trials=True) == base
    assert 1 <= len(made) <= 3


@pytest.mark.parametrize("link", [
    resolve(_ex3()),  # K = 15 next to 70000 trials: a dense table
    resolve(replace(_ex1(), p_her_reference=0.005)),  # a third of the trials time out
    resolve(replace(_ex1(10_000_000.0), p_her_reference=1e-7)),  # sparse rounds
], ids=["ex3", "timeouts", "round-cap"])
def test_codes_index_the_table(link):
    """Each kept trial's code is a row of the table, whose rounds ascend and
    do not repeat; one and two jobs give equal tables and codes."""
    cols = run_trials(link, 70_000, seed=6, keep_trials=True).trials
    assert cols.code.dtype == np.int32 and len(cols.code) == len(cols) == 70_000
    n_rows = len(cols.herald_round)
    assert len(cols.tau_us) == len(cols.f_del) == n_rows
    assert 0 <= cols.code.min() and cols.code.max() < n_rows
    assert (np.diff(cols.herald_round) > 0).all()
    assert np.array_equal(cols.herald_round[cols.code] == 0, cols.winning_channel == -1)
    assert run_trials(link, 70_000, seed=6, n_jobs=2, keep_trials=True).trials == cols


def test_trial_prefix_independent_of_n_trials():
    short = run_trials(resolve(_ex1(20.0)), 500, seed=13, keep_trials=True)
    long = run_trials(resolve(_ex1(20.0)), 1500, seed=13, keep_trials=True)
    want = _per_trial(short.trials)
    for name, column in _per_trial(long.trials).items():
        assert np.array_equal(column[:500], want[name])


def test_histogram_matches_truncated_geometric():
    """Chi-square on herald rounds (plus the no-herald bin) at alpha=0.001."""
    n = 100_000
    out = run_trials(resolve(_ex1()), n, seed=7)
    q = 0.01
    k_rounds = 88
    expected = [n * (1 - q) ** (k - 1) * q for k in range(1, k_rounds + 1)]
    expected.append(n * (1 - q) ** k_rounds)
    observed = _dense(out, k_rounds).tolist()
    assert sum(observed) == n
    # pool any low-expectation tail bins
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
    res = stats.chisquare(obs, f_exp=np.array(exp) * (sum(obs) / sum(exp)))
    assert res.pvalue > 0.001


def test_record_fields_recompute():
    cfg = _ex3()
    m = delivered_fidelity(resolve(cfg))
    out = run_trials(resolve(cfg), 4000, seed=21, keep_trials=True)
    cols = _per_trial(out.trials)
    f_dels = []
    for herald_round, winning_channel, tau_us, f_del in zip(
        cols["herald_round"].tolist(), cols["winning_channel"].tolist(),
        cols["tau_us"].tolist(), cols["f_del"].tolist(),
    ):
        if herald_round == 0:
            assert winning_channel == -1
            assert f_del == 0.5
            assert tau_us == 0.0
        else:
            assert 1 <= herald_round <= 15
            assert 0 <= winning_channel < 20
            assert tau_us == pytest.approx(15.0 - herald_round * 1.0)
            want = 0.5 + (m.f_her - 0.5) * math.exp(-tau_us / 200.0)
            assert f_del == pytest.approx(want, rel=1e-12)
        f_dels.append(f_del)
    assert np.mean(f_dels) == pytest.approx(out.mean_f_del, rel=1e-12)
    assert out.p_success == np.count_nonzero(cols["herald_round"]) / 4000


def test_winning_channel_prefers_low_index():
    """Ties resolve to the lowest channel, so the winner law is geometric."""
    out = run_trials(resolve(_ex3()), 50_000, seed=5, keep_trials=True)
    winners = [c for c in out.trials.winning_channel.tolist() if c >= 0]
    counts = np.bincount(winners, minlength=20)
    p = 0.02
    law = np.array([(1 - p) ** i * p for i in range(20)])
    law /= law.sum()
    res = stats.chisquare(counts, f_exp=law * counts.sum())
    assert res.pvalue > 0.001


def test_zero_herald_probability():
    cfg = LinkConfig(
        transducer=TransducerParams(0.8, 0.0, 0.5, 0.01, 1.0, name="dead"),
        qubit=preset("qubit1"),
        protocol=ProtocolSpec(PhotonBasis.TWO_PHOTON, PumpMode.UPCONVERSION),
        policy=DeliveryPolicy(t_del_us=30.0),
    )
    out = run_trials(resolve(cfg), 300, seed=1)
    assert out.p_success == 0.0
    assert out.mean_f_del == 0.5
    assert out.std_error == 0.0
    assert out.n_no_herald == 300
    assert out.herald_rounds == out.herald_histogram == ()


@pytest.mark.parametrize("n_channels", [1, 20])
def test_certain_and_impossible_heralds(n_channels):
    """p_her 1 heralds every trial in round 1 on channel 0; p_her 0 (no
    detection) heralds none, and every trial is on channel -1."""
    cfg = replace(_ex1(), policy=DeliveryPolicy(t_del_us=88.0, n_parallel=n_channels))
    out = run_trials(resolve(replace(cfg, p_her_reference=1.0)), 3000, seed=5,
                     keep_trials=True)
    trials = _per_trial(out.trials)
    assert out.herald_rounds == (1,) and out.herald_histogram == (3000,)
    assert (trials["herald_round"] == 1).all() and (trials["winning_channel"] == 0).all()
    link = resolve(replace(cfg, transducer=replace(cfg.transducer, eta_det=0.0)))
    assert link.p_her == 0.0
    out = run_trials(link, 3000, seed=5, keep_trials=True)
    trials = _per_trial(out.trials)
    assert out.n_no_herald == 3000 and out.herald_rounds == ()
    assert (trials["herald_round"] == 0).all() and (trials["winning_channel"] == -1).all()


def test_certain_herald_via_override():
    cfg = _ex1(10.0)
    m = delivered_fidelity(resolve(cfg))
    link = resolve(replace(cfg, p_her_reference=1.0))
    out = run_trials(link, 200, seed=2, keep_trials=True)
    assert out.p_success == 1.0
    assert out.herald_rounds == (1,) and out.herald_histogram == (200,)
    want = 0.5 + (m.f_her - 0.5) * math.exp(-9.0 / 200.0)
    assert out.mean_f_del == pytest.approx(want, rel=1e-12)
    assert all(c == 0 for c in out.trials.winning_channel.tolist())


def test_trial_dump_cap():
    with pytest.raises(ConfigError):
        run_trials(resolve(_ex1()), MAX_TRIAL_DUMP + 1, seed=0, keep_trials=True)
    with pytest.raises(ConfigError):
        run_trials(resolve(_ex1()), 0, seed=0)


def test_seed_and_jobs_bounds():
    """The stream takes the seed as one uint64; both of its ends still run."""
    assert run_trials(resolve(_ex1(10.0)), 10, seed=2**64 - 1).n_trials == 10
    for bad in (-1, 2**64):
        with pytest.raises(ConfigError):
            run_trials(resolve(_ex1(10.0)), 10, seed=bad)
        with pytest.raises(ConfigError):
            run_distill_trials(0.9, 2, 10, seed=bad)
    for jobs in (0, -3):
        with pytest.raises(ConfigError):
            run_trials(resolve(_ex1(10.0)), 10, seed=0, n_jobs=jobs)
    with pytest.raises(ConfigError):
        run_trials(resolve(_ex1(10.0)), mcsim.MAX_TRIALS + 1, seed=0)


def test_stats_to_dict_shape():
    out = run_trials(resolve(_ex1(10.0)), 50, seed=3, keep_trials=True)
    d = out.to_dict()
    assert set(d) == {
        "n_trials",
        "seed",
        "mean_f_del",
        "std_error",
        "p_success",
        "n_no_herald",
        "herald_rounds",
        "herald_histogram",
    }
    assert isinstance(d["herald_rounds"], list)
    assert isinstance(d["herald_histogram"], list)
    # only the rounds that heralded, ascending, out of K = 10
    rounds = d["herald_rounds"]
    assert len(rounds) == len(d["herald_histogram"]) == len(set(rounds))
    assert rounds == sorted(rounds) and set(rounds) <= set(range(1, 11))
    assert all(count > 0 for count in d["herald_histogram"])
    assert sum(d["herald_histogram"]) + d["n_no_herald"] == 50


def test_distill_trials_reference():
    out = run_distill_trials(0.91, 4, 20_000, seed=42)
    want = nested_distill(0.91, 4, DistillMode.RECURRENCE)
    assert out.f_out == pytest.approx(want.f_out, rel=1e-15)
    assert out.expected_pairs == pytest.approx(want.pairs_expected, rel=1e-15)
    assert out.mean_pairs_consumed == pytest.approx(21.8311, abs=5e-5)
    assert abs(out.mean_pairs_consumed - out.expected_pairs) < 0.3
    assert [r.level for r in out.per_round] == [1, 2, 3, 4]
    for r in out.per_round:
        se = math.sqrt(r.p_success * (1 - r.p_success) / r.attempts)
        assert abs(r.rate - r.p_success) <= 4 * se


def test_distill_trials_internal_consistency():
    out = run_distill_trials(0.85, 3, 5000, seed=8)
    per = out.per_round
    assert per[-1].successes == 5000  # top of the tree: one state per trial
    for lower, upper in zip(per, per[1:]):
        assert lower.successes == 2 * upper.attempts
        assert lower.attempts >= lower.successes
    assert out.mean_pairs_consumed == pytest.approx(
        2 * per[0].attempts / 5000, rel=1e-12
    )


def test_distill_trials_zero_rounds_and_perfect_input():
    out = run_distill_trials(0.8, 0, 100, seed=0)
    assert out.mean_pairs_consumed == 1.0
    assert out.per_round == ()
    assert out.f_out == pytest.approx(0.8)

    sure = run_distill_trials(1.0, 3, 64, seed=0)
    assert sure.mean_pairs_consumed == 8.0
    assert all(r.rate == 1.0 for r in sure.per_round)


def test_distill_trials_deterministic():
    a = run_distill_trials(0.91, 4, 2000, seed=42)
    b = run_distill_trials(0.91, 4, 2000, seed=42)
    c = run_distill_trials(0.91, 4, 2000, seed=43)
    assert a == b
    assert a.mean_pairs_consumed != c.mean_pairs_consumed
