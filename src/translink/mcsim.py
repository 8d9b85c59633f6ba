"""Seeded Monte Carlo check of the analytic delivery model.

Randomness comes from a counter-based splitmix64 stream: the uniform at
stream position c is a pure hash of (seed, c), so results are bit-identical
no matter how trials are chunked or spread across threads. Trial t takes
exactly two uniforms, at positions 2t and 2t + 1: the first gives its herald
round and the second its winning channel, both by inverting their
distribution functions, so a trial costs O(1) whatever the round and channel
counts. Reductions only ever see the same fully-populated per-trial arrays,
keeping aggregation order-independent.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .delivery import Link
from .errors import ConfigError

MAX_TRIAL_DUMP = 1_000_000
# The per-trial arrays are allocated up front: about 34 bytes a trial at
# peak, so `simulate` peaks near 0.36 GB at the cap (max RSS 356 MB on ex1
# and ex2, 362 MB on ex3 with --jobs 2, at 10^7 trials on a 2-vCPU Xeon).
MAX_TRIALS = 10_000_000

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHUNK = 65536


def _uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64 evaluated at arbitrary stream positions, mapped to [0, 1)."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + (counters + np.uint64(1)) * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0**-53)


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
    herald_histogram: tuple  # count of heralds at round k, k = 1..K
    n_no_herald: int
    trials: TrialColumns | None = None  # only when requested

    def to_dict(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "seed": self.seed,
            "mean_f_del": self.mean_f_del,
            "std_error": self.std_error,
            "p_success": self.p_success,
            "n_no_herald": self.n_no_herald,
            "herald_histogram": list(self.herald_histogram),
        }


def _invert(u_round, u_chan, p_her, n_channels, k_rounds) -> tuple:
    """Herald round and winning channel of each trial from its two uniforms.

    A round heralds with q = 1 - (1 - p)^N, so the herald round is
    geometric: R = 1 + floor(log(1 - u) / (N log(1 - p))), and R > K means
    no herald (round 0, channel -1). Given a herald, the lowest channel that
    hit wins, with P(j) = (1 - p)^j p / q, inverted as
    j = floor(log(1 - u q) / log(1 - p)), clipped to N - 1 against rounding.
    """
    n = len(u_round)
    if p_her <= 0.0:
        return np.zeros(n, dtype=np.int64), np.full(n, -1, dtype=np.int64)
    if p_her >= 1.0:
        return np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    log_miss = math.log1p(-p_her)
    # rounds skipped before the herald, in float: it may exceed any int64
    skipped = np.floor(np.log1p(-u_round) / (n_channels * log_miss))
    heralded = skipped < k_rounds
    rounds = np.where(heralded, skipped + 1.0, 0.0).astype(np.int64)
    q = -math.expm1(n_channels * log_miss)
    chans = np.minimum(np.floor(np.log1p(-u_chan * q) / log_miss), n_channels - 1)
    chans = np.where(heralded, chans, -1.0).astype(np.int64)
    return rounds, chans


def _summarize(link: Link, rounds, chans, k_rounds, seed, keep_trials) -> MCStats:
    """Reduce per-trial herald rounds (0: none) and channels to MCStats.

    Each heralded state decays in storage from its herald round until t_del;
    trials with no herald deliver the fidelity-1/2 fallback.
    """
    t = link.config.transducer
    pol = link.config.policy
    n_trials = len(rounds)
    heralded = rounds > 0
    missed = ~heralded
    # tau, then the decay, then f_del, in one buffer: at the trial cap a
    # full-length temporary is 80 MB
    f_del = np.multiply(rounds, t.t_rep_us, dtype=float)
    np.subtract(pol.t_del_us, f_del, out=f_del)
    np.copyto(f_del, 0.0, where=missed)
    tau = f_del.copy() if keep_trials else None
    # the decay; an infinite t_coh gives exp(-0.0) = 1 exactly
    np.negative(f_del, out=f_del)
    np.divide(f_del, link.config.qubit.t_coh_us, out=f_del)
    np.exp(f_del, out=f_del)
    np.multiply(max(link.f_her - 0.5, 0.0), f_del, out=f_del)
    np.add(0.5, f_del, out=f_del)
    np.copyto(f_del, 0.5, where=missed)

    n_success = int(np.count_nonzero(heralded))
    mean = float(np.mean(f_del))
    std_error = (
        float(np.std(f_del, ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    )
    histogram = np.bincount(rounds[heralded], minlength=k_rounds + 1)[1:]
    return MCStats(
        n_trials=n_trials,
        seed=seed,
        mean_f_del=mean,
        std_error=std_error,
        p_success=n_success / n_trials,
        herald_histogram=tuple(histogram.tolist()),
        n_no_herald=n_trials - n_success,
        trials=TrialColumns(rounds, chans, tau, f_del) if keep_trials else None,
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
    a run do not depend on n_trials.
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
    k_rounds = math.floor(pol.t_del_us / link.config.transducer.t_rep_us)
    rounds = np.zeros(n_trials, dtype=np.int64)
    chans = np.full(n_trials, -1, dtype=np.int64)

    def sample(span):
        """Fill herald round and winning channel for trials [lo, hi)."""
        lo, hi = span
        u = _uniforms(seed, np.arange(2 * lo, 2 * hi, dtype=np.uint64))
        rounds[lo:hi], chans[lo:hi] = _invert(
            u[0::2], u[1::2], link.p_her, pol.n_parallel, k_rounds
        )

    spans = [(lo, min(lo + _CHUNK, n_trials)) for lo in range(0, n_trials, _CHUNK)]
    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            list(pool.map(sample, spans))
    else:
        for span in spans:
            sample(span)
    return _summarize(link, rounds, chans, k_rounds, seed, keep_trials)
