"""Seeded Monte Carlo check of the analytic delivery model.

Randomness comes from a counter-based splitmix64 stream: the uniform at
stream position c is a pure hash of (seed, c), so results are bit-identical
no matter how trials are chunked or spread across threads. Trial t owns
stream positions 2t and 2t + 1: the first gives its herald round and the
second its winning channel, both by inverting their distribution functions,
so a trial costs O(1) whatever the round and channel counts. Only the
per-trial dump reads the channel, so the second uniform is drawn only for
kept trials with N > 1 channels; a skipped draw moves no other value, and
one channel wins every herald without a draw. Storage time and delivered
fidelity depend on a trial only through its herald round, so they are
evaluated once per round and gathered. Reductions only ever see the same
fully-populated per-trial arrays, keeping aggregation order-independent.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields

import numpy as np

from .delivery import Link
from .errors import ConfigError

MAX_TRIAL_DUMP = 1_000_000
# The per-trial arrays are allocated up front: about 24 bytes a trial at
# peak, so `simulate` peaks near 0.26 GB at the cap (max RSS 259-261 MB on
# ex1-ex3 at --jobs 1 and 2, against 30 MB at one trial; 10^7 trials on a
# 2-vCPU Xeon, Python 3.11.7, numpy 2.4.6).
MAX_TRIALS = 10_000_000

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHUNK = 65536


def _uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64 evaluated at arbitrary stream positions, mapped to [0, 1).

    The hash runs in place on one buffer and one scratch array.
    """
    with np.errstate(over="ignore"):
        z = counters + np.uint64(1)
        z *= _GOLDEN
        z += np.uint64(seed)
        shifted = z >> np.uint64(30)
        z ^= shifted
        z *= _MIX1
        np.right_shift(z, np.uint64(27), out=shifted)
        z ^= shifted
        z *= _MIX2
        np.right_shift(z, np.uint64(31), out=shifted)
        z ^= shifted
        z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


def _check_seed(seed: int) -> None:
    """The stream adds the seed as one uint64, so it must fit in one."""
    if not 0 <= seed < 2**64:
        raise ConfigError("seed out of [0, 2**64)")


@dataclass(frozen=True, eq=False)
class TrialColumns:
    """Per-trial results, one equal-length numpy array per field.

    A trial with no herald has herald_round 0, winning_channel -1,
    tau_us 0.0 and the fidelity-1/2 fallback as f_del.
    """

    herald_round: np.ndarray  # int64, 1..K
    winning_channel: np.ndarray  # int64, 0..N-1
    tau_us: np.ndarray  # storage time before delivery
    f_del: np.ndarray

    def __len__(self) -> int:
        return len(self.f_del)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialColumns):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )


@dataclass(frozen=True)
class MCStats:
    n_trials: int
    seed: int
    mean_f_del: float
    std_error: float
    p_success: float
    n_no_herald: int
    herald_rounds: tuple  # the rounds at which some trial heralded, ascending
    herald_histogram: tuple  # count of heralds at each of herald_rounds
    trials: TrialColumns | None = None  # only when requested

    def to_dict(self) -> dict:
        """Every field but trials, in order, with tuples as lists."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        del doc["trials"]
        return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}


def _herald_rounds(u, p_her, n_channels, k_rounds) -> np.ndarray:
    """Herald round of each trial from its first uniform; 0 means no herald.

    A round heralds with q = 1 - (1 - p)^N, so the herald round is
    geometric: R = 1 + floor(log(1 - u) / (N log(1 - p))), and R > K means
    no herald.
    """
    if p_her <= 0.0:
        return np.zeros(len(u), dtype=np.int64)
    if p_her >= 1.0:
        return np.ones(len(u), dtype=np.int64)
    # rounds skipped before the herald, in float: it may exceed any int64
    skipped = np.negative(u)
    np.log1p(skipped, out=skipped)
    skipped /= n_channels * math.log1p(-p_her)
    # skipped >= 0, so the cast floors it; capped at K first, so the cast is
    # safe and K + 1 is the first round past the timeout
    np.minimum(skipped, k_rounds, out=skipped)
    rounds = skipped.astype(np.int64)
    rounds += 1
    rounds *= rounds <= k_rounds
    return rounds


def _winning_channels(u, rounds, p_her, n_channels) -> np.ndarray:
    """Winning channel of each trial from its second uniform; -1: no herald.

    Given a herald, the lowest channel that hit wins, with
    P(j) = (1 - p)^j p / q, inverted as j = floor(log(1 - u q) / log(1 - p)),
    clipped to N - 1 against rounding. With one channel, or p_her 0 or 1,
    every herald goes to channel 0 and u is not read (it may be None).
    """
    heralded = rounds > 0
    if n_channels == 1 or not 0.0 < p_her < 1.0:
        return heralded.astype(np.int64) - 1
    log_miss = math.log1p(-p_her)
    q = -math.expm1(n_channels * log_miss)
    chans = np.minimum(np.floor(np.log1p(-u * q) / log_miss), n_channels - 1)
    return np.where(heralded, chans, -1.0).astype(np.int64)


def _summarize(link: Link, rounds, chans, seed) -> MCStats:
    """Reduce per-trial herald rounds (0: none) to MCStats.

    Each heralded state decays in storage from its herald round until t_del;
    trials with no herald deliver the fidelity-1/2 fallback. Storage time
    and f_del are evaluated once for each round 0..max(rounds), element for
    element the same float operations that a per-trial evaluation runs, and
    gathered into the per-trial arrays. `chans` is None unless the trials
    are kept.
    """
    t = link.config.transducer
    pol = link.config.policy
    n_trials = len(rounds)
    counts = np.bincount(rounds)
    # tau at each round, then the decay, then f_del, in one buffer
    f_del = np.multiply(np.arange(len(counts)), t.t_rep_us, dtype=float)
    np.subtract(pol.t_del_us, f_del, out=f_del)
    f_del[0] = 0.0  # round 0: no herald, nothing stored
    tau = f_del[rounds] if chans is not None else None
    # the decay; an infinite t_coh gives exp(-0.0) = 1 exactly
    np.negative(f_del, out=f_del)
    np.divide(f_del, link.config.qubit.t_coh_us, out=f_del)
    np.exp(f_del, out=f_del)
    np.multiply(max(link.f_her - 0.5, 0.0), f_del, out=f_del)
    np.add(0.5, f_del, out=f_del)
    f_del[0] = 0.5
    f_del = f_del[rounds]

    mean = float(np.mean(f_del))
    std_error = (
        float(np.std(f_del, ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    )
    herald_rounds = np.flatnonzero(counts[1:]) + 1
    n_no_herald = int(counts[0])
    return MCStats(
        n_trials=n_trials,
        seed=seed,
        mean_f_del=mean,
        std_error=std_error,
        p_success=(n_trials - n_no_herald) / n_trials,
        herald_rounds=tuple(herald_rounds.tolist()),
        herald_histogram=tuple(counts[herald_rounds].tolist()),
        n_no_herald=n_no_herald,
        trials=TrialColumns(rounds, chans, tau, f_del) if chans is not None else None,
    )


def run_trials(
    link: Link,
    n_trials: int,
    seed: int,
    n_jobs: int = 1,
    keep_trials: bool = False,
) -> MCStats:
    """Simulate n_trials independent delivery attempts of the resolved link.

    Per trial: up to K = floor(t_del/t_rep) rounds, each of the N parallel
    channels heralds independently with probability p_her; the first herald
    freezes the state into storage where it decays until t_del. Trials with
    no herald deliver the fidelity-1/2 fallback. Identical (link, n_trials,
    seed) give bit-identical results for any n_jobs, and the first trials of
    a run do not depend on n_trials. Trial t reads its herald round at
    stream position 2t; its winning channel, at 2t + 1, is drawn only when
    keep_trials is set and N > 1, which leaves every other value unchanged.
    """
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    if n_trials > MAX_TRIALS:
        raise ConfigError(f"n_trials must be <= {MAX_TRIALS}")
    if n_jobs < 1:
        raise ConfigError("n_jobs must be >= 1")
    _check_seed(seed)
    if keep_trials and n_trials > MAX_TRIAL_DUMP:
        raise ConfigError(f"per-trial dump capped at {MAX_TRIAL_DUMP} rows")

    pol = link.config.policy
    n_channels = pol.n_parallel
    k_rounds = math.floor(pol.t_del_us / link.config.transducer.t_rep_us)
    rounds = np.empty(n_trials, dtype=np.int64)
    chans = np.empty(n_trials, dtype=np.int64) if keep_trials else None
    draw_chans = keep_trials and n_channels > 1

    def sample(span):
        """Fill herald round, and the channel if kept, for trials [lo, hi)."""
        lo, hi = span
        step = 1 if draw_chans else 2  # both positions of each trial, or 2t only
        u = _uniforms(seed, np.arange(2 * lo, 2 * hi, step, dtype=np.uint64))
        u_round, u_chan = (u[0::2], u[1::2]) if draw_chans else (u, None)
        rounds[lo:hi] = _herald_rounds(u_round, link.p_her, n_channels, k_rounds)
        if keep_trials:
            chans[lo:hi] = _winning_channels(
                u_chan, rounds[lo:hi], link.p_her, n_channels
            )

    spans = [(lo, min(lo + _CHUNK, n_trials)) for lo in range(0, n_trials, _CHUNK)]
    todo, errors = iter(spans), []

    def work():
        """Sample spans until none is left; under the GIL, next() on the shared
        list iterator hands each span to one thread."""
        try:
            for span in todo:
                sample(span)
        except BaseException as exc:
            errors.append(exc)

    # the calling thread is one of the workers, so one job starts no thread,
    # and no thread starts without a span to draw
    threads = [threading.Thread(target=work) for _ in range(min(n_jobs, len(spans)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return _summarize(link, rounds, chans, seed)
