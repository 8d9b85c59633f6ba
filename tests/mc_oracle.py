"""Reference Monte Carlo engines, kept to cross-check the library.

`run_trials` is the per-channel Bernoulli race that `translink.mcsim` used
before it sampled each trial by inversion: one uniform per (trial, round,
channel) at stream position (trial * K + round - 1) * N + channel, so a trial
costs O(K N). It reproduces that engine's stream exactly and shares the
library's reduction of the histogram, and it returns its per-trial herald
rounds and winning channels, so the two engines can be compared trial law
against trial law.

`run_two_draw_trials` is the inversion engine as it was before the library
skipped the draws that no output reads: it draws both uniforms of every
trial, at stream positions 2t and 2t + 1, from its own copy of the
splitmix64 hash, and evaluates herald rounds, storage time and f_del trial
by trial with the expressions that the library used then. It reduces its own
per-trial f_del to the mean and standard error with exact Python integer
sums, by the library's definition of both, where the library reduces a
herald-round histogram. It returns its per-trial columns as they are, where
the library codes kept trials by round. The library must match it bit for
bit.

`run_distill_trials` samples the pair consumption of nested recurrence
distillation, to cross-check the closed-form `pairs_expected` of
`nested_distill`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from translink import ConfigError, DistillMode, nested_distill, recurrence_ladder
from translink.mcsim import (
    MAX_TRIALS,
    MCStats,
    _check_seed,
    _summarize,
    _uniforms,
)

_CHUNK = 65536
# Uniforms drawn per round by one chunk: trials x channels stays under this,
# so memory stays bounded however many channels race.
_CHUNK_DRAWS = 2**22


def _simulate_chunk(start, stop, seed, p_her, n_channels, k_rounds, rounds_out, chan_out):
    """Fill herald round and winning channel for trials [start, stop)."""
    n = stop - start
    stride = np.uint64(k_rounds * n_channels)
    trial_base = (np.arange(start, stop, dtype=np.uint64)) * stride
    alive = np.arange(n, dtype=np.int64)
    rounds_local = np.zeros(n, dtype=np.int64)
    chans_local = np.full(n, -1, dtype=np.int64)
    chan_offsets = np.arange(n_channels, dtype=np.uint64)
    for k in range(1, k_rounds + 1):
        if alive.size == 0:
            break
        base = trial_base[alive] + np.uint64((k - 1) * n_channels)
        u = _uniforms(seed, base[:, None] + chan_offsets[None, :])
        hits = u < p_her
        won = hits.any(axis=1)
        if won.any():
            winners = alive[won]
            rounds_local[winners] = k
            chans_local[winners] = np.argmax(hits[won], axis=1)
            alive = alive[~won]
    rounds_out[start:stop] = rounds_local
    chan_out[start:stop] = chans_local


def run_trials(link, n_trials: int, seed: int, n_jobs: int = 1) -> tuple:
    """The per-channel race over every round, reduced as the library does.

    Returns (stats, herald rounds, winning channels), the last two per trial.
    """
    if not 1 <= n_trials <= MAX_TRIALS or n_jobs < 1:
        raise ConfigError("n_trials or n_jobs out of range")
    _check_seed(seed)
    t = link.config.transducer
    pol = link.config.policy
    k_rounds = math.floor(pol.t_del_us / t.t_rep_us)
    n_channels = pol.n_parallel
    chunk = max(1, min(_CHUNK, _CHUNK_DRAWS // n_channels))

    rounds = np.zeros(n_trials, dtype=np.int64)
    chans = np.full(n_trials, -1, dtype=np.int64)
    spans = [(lo, min(lo + chunk, n_trials)) for lo in range(0, n_trials, chunk)]
    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            list(
                pool.map(
                    lambda span: _simulate_chunk(
                        span[0], span[1], seed, link.p_her,
                        n_channels, k_rounds, rounds, chans,
                    ),
                    spans,
                )
            )
    else:
        for lo, hi in spans:
            _simulate_chunk(
                lo, hi, seed, link.p_her, n_channels, k_rounds, rounds, chans
            )
    hist = np.unique(rounds, return_counts=True)
    return _summarize(link, hist, seed), rounds, chans


def _splitmix_uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64 at the given stream positions, mapped to [0, 1)."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + (counters + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def _invert(u_round, u_chan, p_her, n_channels, k_rounds) -> tuple:
    """Herald round and winning channel of each trial from its two uniforms."""
    n = len(u_round)
    if p_her <= 0.0:
        return np.zeros(n, dtype=np.int64), np.full(n, -1, dtype=np.int64)
    if p_her >= 1.0:
        return np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    log_miss = math.log1p(-p_her)
    skipped = np.floor(np.log1p(-u_round) / (n_channels * log_miss))
    heralded = skipped < k_rounds
    rounds = np.where(heralded, skipped + 1.0, 0.0).astype(np.int64)
    q = -math.expm1(n_channels * log_miss)
    chans = np.minimum(np.floor(np.log1p(-u_chan * q) / log_miss), n_channels - 1)
    chans = np.where(heralded, chans, -1.0).astype(np.int64)
    return rounds, chans


def _exact_moments(f_del) -> tuple:
    """Mean and standard error of per-trial f_del values, from exact sums.

    Every f_del is at least 1/2, so f * 2**53 is an integer; the sums of
    those integers and of their squares are exact Python ints. The mean is
    their correctly rounded quotient, and the standard error the square
    root of the correctly rounded s^2 / n, s^2 the sample variance.
    """
    scaled = (f_del * 2.0**53).tolist()
    assert all(x.is_integer() for x in scaled)
    ints = [int(x) for x in scaled]
    n, s1, s2 = len(ints), sum(ints), sum(x * x for x in ints)
    mean = s1 / (n << 53)
    if n == 1:
        return mean, 0.0
    return mean, math.sqrt((n * s2 - s1 * s1) / (n * n * (n - 1) << 106))


def run_two_draw_trials(link, n_trials: int, seed: int) -> tuple:
    """Two draws per trial and a per-trial f_del; the trials are always kept.

    The histogram comes from np.unique of the per-trial rounds, and the
    mean and standard error from the per-trial f_del. Returns (stats, trials):
    trials maps herald_round, winning_channel, tau_us and f_del to one array
    each, a value per trial.
    """
    t = link.config.transducer
    pol = link.config.policy
    k_rounds = math.floor(pol.t_del_us / t.t_rep_us)
    u = _splitmix_uniforms(seed, np.arange(2 * n_trials, dtype=np.uint64))
    rounds, chans = _invert(u[0::2], u[1::2], link.p_her, pol.n_parallel, k_rounds)

    heralded = rounds > 0
    missed = ~heralded
    f_del = np.multiply(rounds, t.t_rep_us, dtype=float)
    np.subtract(pol.t_del_us, f_del, out=f_del)
    np.copyto(f_del, 0.0, where=missed)
    tau = f_del.copy()
    np.negative(f_del, out=f_del)
    np.divide(f_del, link.config.qubit.t_coh_us, out=f_del)
    np.exp(f_del, out=f_del)
    np.multiply(max(link.f_her - 0.5, 0.0), f_del, out=f_del)
    np.add(0.5, f_del, out=f_del)
    np.copyto(f_del, 0.5, where=missed)

    n_success = int(np.count_nonzero(heralded))
    herald_rounds, herald_histogram = np.unique(rounds[heralded], return_counts=True)
    mean_f_del, std_error = _exact_moments(f_del)
    stats = MCStats(
        n_trials=n_trials,
        seed=seed,
        mean_f_del=mean_f_del,
        std_error=std_error,
        p_success=n_success / n_trials,
        herald_rounds=tuple(herald_rounds.tolist()),
        herald_histogram=tuple(herald_histogram.tolist()),
        n_no_herald=n_trials - n_success,
    )
    trials = {"herald_round": rounds, "winning_channel": chans, "tau_us": tau, "f_del": f_del}
    return stats, trials


@dataclass(frozen=True)
class DistillRoundStats:
    level: int  # 1 = first round applied to raw pairs
    p_success: float  # closed-form success probability
    attempts: int
    successes: int

    @property
    def rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 1.0


@dataclass(frozen=True)
class DistillTrialStats:
    n_trials: int
    seed: int
    rounds: int
    f_out: float  # deterministic output fidelity of the recurrence ladder
    mean_pairs_consumed: float
    expected_pairs: float  # closed form 2^rounds / prod p_i
    per_round: tuple  # DistillRoundStats per level

    def to_dict(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "seed": self.seed,
            "rounds": self.rounds,
            "f_out": self.f_out,
            "mean_pairs_consumed": self.mean_pairs_consumed,
            "expected_pairs": self.expected_pairs,
            "per_round": [
                {
                    "level": r.level,
                    "p_success": r.p_success,
                    "attempts": r.attempts,
                    "successes": r.successes,
                    "rate": r.rate,
                }
                for r in self.per_round
            ],
        }


# Counter layout for distillation draws: one slot per required success.
_SLOT_STRIDE = np.uint64(1) << np.uint64(20)
_LEVEL_STRIDE = np.uint64(1) << np.uint64(24)


def run_distill_trials(
    f_in: float, rounds: int, n_trials: int, seed: int
) -> DistillTrialStats:
    """Sample the pair consumption of nested recurrence distillation.

    Walks the ladder top-down: the number of attempts needed at each level is
    a sum of geometric draws (one per required success), sampled by inversion
    from the counter-based stream so runs are reproducible per (seed, trial).
    """
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    _check_seed(seed)
    closed_form = nested_distill(f_in, rounds, DistillMode.RECURRENCE)
    ladder = recurrence_ladder(f_in, rounds)

    trial_ids = np.arange(n_trials, dtype=np.uint64)
    needed = np.ones(n_trials, dtype=np.int64)
    per_round: list[DistillRoundStats] = []
    for level in range(rounds, 0, -1):
        p = ladder[level - 1].success_probability
        total_needed = int(needed.sum())
        if p >= 1.0:
            attempts = needed.copy()
        else:
            # one geometric draw per required success, indexed by its slot
            owner = np.repeat(np.arange(n_trials), needed)
            starts = np.concatenate(([0], np.cumsum(needed)[:-1]))
            slots = np.arange(total_needed, dtype=np.int64) - np.repeat(starts, needed)
            if total_needed and slots.max() >= int(_SLOT_STRIDE):
                raise ConfigError("distillation trial exceeded the slot budget")
            counters = (
                trial_ids[owner] * _LEVEL_STRIDE * np.uint64(16)
                + np.uint64(level) * _LEVEL_STRIDE
                + slots.astype(np.uint64)
            )
            u = _uniforms(seed, counters)
            draws = 1 + np.floor(np.log1p(-u) / math.log1p(-p)).astype(np.int64)
            attempts = np.zeros(n_trials, dtype=np.int64)
            np.add.at(attempts, owner, draws)
        per_round.append(
            DistillRoundStats(
                level=level,
                p_success=p,
                attempts=int(attempts.sum()),
                successes=total_needed,
            )
        )
        needed = 2 * attempts
    per_round.reverse()
    pairs = needed.astype(np.float64)  # raw pairs consumed per trial
    return DistillTrialStats(
        n_trials=n_trials,
        seed=seed,
        rounds=rounds,
        f_out=closed_form.f_out,
        mean_pairs_consumed=float(pairs.mean()),
        expected_pairs=closed_form.pairs_expected,
        per_round=tuple(per_round),
    )
