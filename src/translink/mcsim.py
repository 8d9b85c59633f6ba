"""Seeded Monte Carlo oracle for the analytic delivery and distillation models.

Randomness comes from a counter-based splitmix64 stream: the uniform for
(trial, round, channel) is a pure hash of (seed, counter), so results are
bit-identical no matter how trials are chunked or spread across threads.
Reductions only ever see the same fully-populated per-trial arrays, keeping
aggregation order-independent.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .delivery import Link
from .errors import ConfigError
from .distillation import DistillMode, nested_distill, recurrence_ladder

MAX_TRIAL_DUMP = 1_000_000
# The per-trial arrays are allocated up front: about 50 bytes a trial at
# peak, so `simulate` peaks near 0.5 GB at the cap.
MAX_TRIALS = 10_000_000

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHUNK = 65536
# Uniforms drawn per round by one chunk: trials x channels stays under this,
# so memory stays bounded however many channels race.
_CHUNK_DRAWS = 2**22


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


@dataclass(frozen=True)
class TrialRecord:
    """One delivery trial; herald_round is None when the link timed out."""

    herald_round: int | None
    winning_channel: int | None
    tau_us: float
    f_del: float


@dataclass(frozen=True)
class MCStats:
    n_trials: int
    seed: int
    mean_f_del: float
    std_error: float
    p_success: float
    herald_histogram: tuple  # count of heralds at round k, k = 1..K
    n_no_herald: int
    trials: tuple | None = None  # TrialRecords, only when requested

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
    seed) give bit-identical results for any n_jobs.
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

    heralded = rounds > 0
    tau = np.where(heralded, pol.t_del_us - rounds * t.t_rep_us, 0.0)
    t_coh = link.config.qubit.t_coh_us
    decay = np.exp(-tau / t_coh) if not math.isinf(t_coh) else np.ones_like(tau)
    f_del = np.where(heralded, 0.5 + max(link.f_her - 0.5, 0.0) * decay, 0.5)

    n_success = int(np.count_nonzero(heralded))
    mean = float(np.mean(f_del))
    std_error = (
        float(np.std(f_del, ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    )
    histogram = np.bincount(rounds[heralded], minlength=k_rounds + 1)[1:]

    trials = None
    if keep_trials:
        trials = tuple(
            TrialRecord(
                herald_round=int(r) if r > 0 else None,
                winning_channel=int(c) if c >= 0 else None,
                tau_us=float(tv),
                f_del=float(fv),
            )
            for r, c, tv, fv in zip(rounds, chans, tau, f_del)
        )
    return MCStats(
        n_trials=n_trials,
        seed=seed,
        mean_f_del=mean,
        std_error=std_error,
        p_success=n_success / n_trials,
        herald_histogram=tuple(int(c) for c in histogram),
        n_no_herald=n_trials - n_success,
        trials=trials,
    )


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
