"""Reference Monte Carlo engines, kept to cross-check the library.

`run_trials` is the per-channel Bernoulli race that `translink.mcsim` used
before it sampled each trial by inversion: one uniform per (trial, round,
channel) at stream position (trial * K + round - 1) * N + channel, so a trial
costs O(K N). It reproduces that engine's stream exactly and shares the
library's reductions, so the two engines can be compared trial law against
trial law.

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


def run_trials(link, n_trials: int, seed: int, n_jobs: int = 1,
               keep_trials: bool = False) -> MCStats:
    """The per-channel race over every round, reduced as the library does."""
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
    return _summarize(link, rounds, chans, k_rounds, seed, keep_trials)


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
