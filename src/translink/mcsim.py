"""Seeded Monte Carlo check of the analytic delivery model.

Randomness comes from a counter-based splitmix64 stream: the uniform at
stream position c is a pure hash of (seed, c), so results are bit-identical
no matter how trials are chunked or spread across threads. Trial t owns
stream positions 2t and 2t + 1: the first gives its herald round and the
second its winning channel, both by inverting their distribution functions,
so a trial costs O(1) whatever the round and channel counts. Only the
per-trial dump reads the channel, so the second uniform is drawn only for
kept trials with N > 1 channels; a skipped draw moves no other value, and
one channel wins every herald without a draw.

Storage time and delivered fidelity depend on a trial only through its
herald round. So each worker thread counts the herald rounds of the spans
it draws into a histogram, dense over 0..K when K is small next to a span
and sorted and sparse otherwise, and no per-trial array exists unless the
trials are kept. The histograms merge exactly, f_del is evaluated once per
distinct round, and the mean and standard error are correctly rounded from
exact integer sums over the histogram. Every statistic is therefore the
same for any job count, span size or keep_trials. The merged histogram
stays two int64 arrays, through MCStats to emit_json, which writes them a
block at a time: at millions of distinct rounds, a tuple of Python ints
costs about 36 B an entry and its indented JSON text some 15 more, where the
arrays cost 8. Kept trials stay coded by round: each holds its winning
channel (int16) and a code, the index of its row in that per-round table
of herald round, storage time and f_del.

The draws read the link's law where the analytics read it: K and the gain
from the Link, and the log-miss a = N log1p(-p_her) and the round's herald
probability q from the delivery evaluator, floored as it floors them. So
the two models read the same a and q on every CPU. The per-round table's
f_del is the analytics' one formula too, delivery._f_del: 1/2 + gain s,
with s the heralded state's decay factor. The uniforms' own log1p(-u) is
numpy's, whose last bit may differ between CPUs; that can move a herald
round across an integer, with a chance of at most about K 10^-16 per
trial.
"""

from __future__ import annotations

import math
import threading
from dataclasses import fields

from ._numpy import np
from .delivery import Link, _f_del, _law
from .errors import ConfigError
from .params import Record

MAX_TRIAL_DUMP = 1_000_000
# The cap bounds time, not memory: without kept trials no per-trial array
# exists, and each worker holds one span's draws and a histogram with at
# most one entry per distinct herald round.
MAX_TRIALS = 10_000_000

# splitmix64's constants, made uint64 where the hash uses them: a module-level
# numpy scalar would load numpy at import (see _numpy)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_CHUNK = 65536


def _uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64 evaluated at arbitrary stream positions, mapped to [0, 1).

    The hash runs in place on one buffer and one scratch array.
    """
    with np.errstate(over="ignore"):
        z = counters + np.uint64(1)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(seed)
        shifted = z >> np.uint64(30)
        z ^= shifted
        z *= np.uint64(_MIX1)
        np.right_shift(z, np.uint64(27), out=shifted)
        z ^= shifted
        z *= np.uint64(_MIX2)
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


class TrialColumns(Record):
    """Kept trials, coded by herald round: two per-trial arrays and a table.

    Trial i heralded at herald_round[code[i]] and waited tau_us[code[i]]
    in storage before delivering f_del[code[i]]; the table has one row per
    round of the run's histogram, so rows that no kept trial reads may
    occur. A trial with no herald has a code whose round is 0, with tau_us
    0.0 and the fidelity-1/2 fallback as f_del, and winning_channel -1.
    """

    code: np.ndarray  # int32, per trial: its row of the table
    winning_channel: np.ndarray  # int16, per trial: 0..N-1, N <= 10^4
    herald_round: np.ndarray  # int64, per row: 0..K
    tau_us: np.ndarray  # per row: storage time before delivery
    f_del: np.ndarray  # per row

    def __len__(self) -> int:
        return len(self.code)

    def __eq__(self, other) -> bool:
        return _fields_equal(self, other)


class MCStats(Record):
    """Statistics of one Monte Carlo run, from its herald-round histogram.

    The histogram stays the merged int64 arrays, 8 B an entry and column
    where a tuple of Python ints takes about 36: at the 10^7-round cap a
    run heralds at millions of distinct rounds. emit_json writes the two
    arrays a block at a time, and == compares them element by element.
    """

    n_trials: int
    seed: int
    mean_f_del: float
    std_error: float
    p_success: float
    n_no_herald: int
    herald_rounds: np.ndarray  # int64: the rounds at which some trial heralded, ascending
    herald_histogram: np.ndarray  # int64: count of heralds at each of herald_rounds
    trials: TrialColumns | None = None  # only when requested

    def __eq__(self, other) -> bool:
        return _fields_equal(self, other)

    def to_dict(self) -> dict:
        """Every field but trials, in order; the histogram stays two arrays."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        del doc["trials"]
        return doc


def _fields_equal(record, other):
    """== of two records of one class, array fields element by element."""
    if other.__class__ is not record.__class__:
        return NotImplemented
    return all(
        np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
        for mine, theirs in ((getattr(record, f.name), getattr(other, f.name))
                             for f in fields(record))
    )


def _herald_rounds(u, a, k_rounds) -> np.ndarray:
    """Herald round of each trial from its first uniform; 0 means no herald.

    A round heralds with q = 1 - e^a, a = N log1p(-p), so the herald round
    is geometric: R = 1 + floor(log1p(-u) / a), and R > K means no herald.
    At p = 1 the floored a of -10^4 gives R = 1 for every u < 1.
    """
    if a == 0.0:  # p = 0: no herald, and u = 0 would give 0/0
        return np.zeros(len(u), dtype=np.int64)
    # rounds skipped before the herald, in float: it may exceed any int64
    skipped = np.negative(u)
    np.log1p(skipped, out=skipped)
    # a subnormal p_her overflows the quotient to inf, which the cap at K takes
    with np.errstate(over="ignore"):
        skipped /= a
    # skipped >= 0, so the cast floors it; capped at K first, so the cast is
    # safe and K + 1 is the first round past the timeout
    np.minimum(skipped, k_rounds, out=skipped)
    rounds = skipped.astype(np.int64)
    rounds += 1
    rounds *= rounds <= k_rounds
    return rounds


def _winning_channels(u, rounds, log_miss, q, n_channels) -> np.ndarray:
    """Winning channel of each trial from its second uniform; -1: no herald.

    Given a herald, the lowest channel that hit wins, with
    P(j) = (1 - p)^j p / q, inverted as j = floor(log1p(-u q) / log_miss),
    log_miss = log1p(-p), and clipped to N - 1 against rounding. At p = 1
    the floored log_miss of -10^4 gives channel 0 for every u < 1. With one
    channel every herald goes to channel 0, and with none (p = 0 gives none)
    no channel is drawn; then u is not read (it may be None). The channels
    are int16: a policy has at most 10^4 of them.
    """
    heralded = rounds > 0
    if n_channels == 1 or not heralded.any():
        return heralded.astype(np.int16) - 1
    chans = np.minimum(np.floor(np.log1p(-u * q) / log_miss), n_channels - 1)
    return np.where(heralded, chans, -1.0).astype(np.int16)


def _merge(hists: list):
    """One (rounds, counts) histogram from the list hists of several,
    exactly: the distinct rounds ascending and the counts summed.
    Histograms that share one dense 0..K rounds array add their counts.

    Sparse ones are merged as one int64 key per entry, round << 32 | count:
    a round is at most K <= 10^7 and a count at most MAX_TRIALS, both below
    2**31, so sorting the keys sorts the rounds and puts the counts of one
    round side by side. Each input is popped from hists, and so freed, once
    its keys are packed; the sort runs in place. The merge then holds about
    18 B an input entry beside its output, where np.unique with an inverse
    held the inputs' 16 and about 55 more.
    """
    if all(r is hists[0][0] for r, _ in hists):
        rounds, counts = zip(*hists)
        return rounds[0], sum(counts[1:], counts[0])  # one histogram: itself
    keys = np.empty(sum(len(r) for r, _ in hists), dtype=np.int64)
    lo = 0
    while hists:
        part, count = hists.pop()
        key = keys[lo:lo + len(part)]
        np.left_shift(part, 32, out=key)
        key |= count
        lo += len(part)
        del part, count
    keys.sort()
    rounds = keys >> 32
    starts = np.flatnonzero(np.concatenate(([True], rounds[1:] != rounds[:-1])))
    rounds = rounds[starts]
    keys &= 0xFFFFFFFF
    return rounds, np.add.reduceat(keys, starts)


def _table(link: Link, values):
    """Storage time and f_del at each herald round of values (0: none).

    Each heralded state decays in storage from its herald round until
    t_del; trials with no herald deliver the fidelity-1/2 fallback. These
    are, element for element, the float operations that a per-trial
    evaluation runs, so a row does not depend on the slice it is read in.
    """
    c = link.config
    missed = values == 0  # no herald, nothing stored
    tau = np.where(missed, 0.0, c.policy.t_del_us - values * c.transducer.t_rep_us)
    # the decay; an infinite t_coh gives exp(-0.0) = 1 exactly, and a
    # subnormal one overflows the exponent to -inf, whose exp is 0 exactly
    with np.errstate(over="ignore"):
        decay = np.exp(-tau / c.qubit.t_coh_us)
    return tau, np.where(missed, 0.5, _f_del(link, decay))


def _moments(link: Link, values, counts, n) -> tuple:
    """Mean and standard error of the f_del of n trials, of which counts[i]
    heralded at round values[i].

    Both are correctly rounded from exact integer sums, so they do not
    depend on how the trials were counted. Each f_del lies in [1/2, 1], so
    m = f_del * 2**53 is an integer below 2**54. Its three 18-bit pieces
    keep every partial sum of counts * piece * piece below n * 2**36, inside
    int64 for n < 2**27 trials. SE is the square root of the correctly
    rounded s^2 / n, s^2 the sample variance. f_del and the pieces are
    evaluated a span of rounds at a time, so they cost no more than a
    span's draws, however many rounds heralded.
    """
    s1 = s2 = 0
    for lo in range(0, len(values), _CHUNK):
        m = (_table(link, values[lo:lo + _CHUNK])[1] * 2.0**53).astype(np.int64)
        pieces = [(m >> shift) & 0x3FFFF for shift in (0, 18, 36)]
        weighted = [counts[lo:lo + _CHUNK] * piece for piece in pieces]
        s1 += sum(int(w.sum()) << 18 * i for i, w in enumerate(weighted))
        s2 += sum(int(np.dot(w, piece)) << 18 * (i + j)
                  for i, w in enumerate(weighted) for j, piece in enumerate(pieces))
    se2 = (n * s2 - s1 * s1) / (n * n * (n - 1) << 106) if n > 1 else 0.0
    return s1 / (n << 53), math.sqrt(se2)


def _summarize(link: Link, hist, seed, rounds=None, chans=None) -> MCStats:
    """Reduce a histogram of herald rounds (0: none) to MCStats.

    hist is (rounds, counts): the distinct rounds, ascending, and the trials
    at each. Storage time and f_del are evaluated once for each of those
    rounds (see _table). Kept trials (`rounds` and `chans`, per trial) are
    coded by their row of that table.
    """
    values, counts = hist
    n_trials = int(counts.sum())
    missed = values == 0  # no herald
    heralded = (counts > 0) & ~missed
    n_no_herald = int(counts[missed].sum())
    trials = None
    if rounds is not None:
        # a kept trial's code is its round's row; a dense table holds round r at row r
        dense = len(values) > values[-1]
        at = rounds if dense else np.searchsorted(values, rounds).astype(np.int32)
        trials = TrialColumns(at, chans, values, *_table(link, values))
    return MCStats(
        n_trials, seed, *_moments(link, values, counts, n_trials),
        (n_trials - n_no_herald) / n_trials, n_no_herald,
        values[heralded], counts[heralded], trials,
    )


def run_trials(
    link: Link, n_trials: int, seed: int, n_jobs: int = 1, keep_trials: bool = False
) -> MCStats:
    """Simulate n_trials independent delivery attempts of the resolved link.

    Per trial: up to K = link.k_rounds rounds, each of the N parallel
    channels heralds independently with probability p_her; the first herald
    freezes the state into storage where it decays until t_del. Trials with
    no herald deliver the fidelity-1/2 fallback. Identical (link, n_trials,
    seed) give bit-identical results for any n_jobs, and the first trials of
    a run do not depend on n_trials. Trial t reads its herald round at
    stream position 2t; its winning channel, at 2t + 1, is drawn only when
    keep_trials is set and N > 1, which leaves every other value unchanged.
    The statistics come from the herald-round histogram either way.
    """
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ConfigError(f"n_trials must be in [1, {MAX_TRIALS}]")
    if n_jobs < 1:
        raise ConfigError("n_jobs must be >= 1")
    _check_seed(seed)
    if keep_trials and n_trials > MAX_TRIAL_DUMP:
        raise ConfigError(f"per-trial dump capped at {MAX_TRIAL_DUMP} rows")

    n_channels, k_rounds = link.config.policy.n_parallel, link.k_rounds
    # the evaluator's a at one channel and at N, and q at N. This call loads a
    # deferred numpy (see _numpy) in the calling thread: Python 3.10 and
    # 3.11's lazy loader has no lock, so two workers that read it first at
    # once would see it half built
    (log_miss, a), _, law = _law(link, [1, n_channels])
    q = law[0, 1]
    # the kept trials' herald rounds (K <= 10^7 fits int32) and winning
    # channels, apart: the rounds become the codes, and must not hold the
    # channels' memory alive with them
    rounds = np.empty(n_trials, dtype=np.int32) if keep_trials else None
    chans = np.empty(n_trials, dtype=np.int16) if keep_trials else None
    draw_chans = keep_trials and n_channels > 1
    # K + 1 bins cost no more than a span's draws: count densely, else sort
    dense = np.arange(k_rounds + 1) if k_rounds < min(_CHUNK, n_trials) else None

    def count(lo, hi):
        """Histogram of the herald rounds of trials [lo, hi), kept if asked."""
        step = 1 if draw_chans else 2  # both positions of each trial, or 2t only
        u = _uniforms(seed, np.arange(2 * lo, 2 * hi, step, dtype=np.uint64))
        u_round, u_chan = (u[0::2], u[1::2]) if draw_chans else (u, None)
        drawn = _herald_rounds(u_round, a, k_rounds)
        if keep_trials:
            rounds[lo:hi] = drawn
            chans[lo:hi] = _winning_channels(u_chan, drawn, log_miss, q, n_channels)
        if dense is None:
            return np.unique(drawn, return_counts=True)
        return dense, np.bincount(drawn, minlength=len(dense))

    spans = [(lo, min(lo + _CHUNK, n_trials)) for lo in range(0, n_trials, _CHUNK)]
    todo, hists, errors = iter(spans), [], []

    def work():
        """Count spans until none is left, then hand in this thread's
        histogram; under the GIL, next() on the shared list iterator hands
        each span to one thread."""
        try:
            parts = []
            for span in todo:
                parts.append(count(*span))
                # merged once the unmerged parts hold as many entries as
                # the merged one: a merge sorts at most twice what it takes
                # in, and a thread holds at most twice its histogram and a span
                if sum(len(c) for _, c in parts[1:]) >= len(parts[0][1]):
                    parts = [_merge(parts)]
            hists.extend(parts)
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
    return _summarize(link, _merge(hists), seed, rounds, chans)
