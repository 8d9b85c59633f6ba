"""Entanglement distillation: calibrated order-of-magnitude rule and recurrence.

Calibrated mode encodes the budget rule used for planning: four rounds
(16 pairs) buy one order of magnitude in infidelity, i.e.
F_out = 1 - (1 - F_in) * 10^(-rounds/4), applied uniformly in F_in.

Recurrence mode is a physical DEJMPS-style recurrence step on Bell-diagonal
states. The coefficient map below was read off a 16x16 two-copy
density-matrix simulation of the circuit (bilateral Rx(+-pi/2), bilateral
CNOTs, Z measurement of the target pair, post-selection on even parity);
the test suite re-derives it from that oracle and requires agreement to
1e-12. Bell-state order: Phi+, Phi-, Psi+, Psi- with p1 the fidelity to
the target Phi+.
"""

from __future__ import annotations

from enum import Enum

from .errors import ConfigError, DegenerateInputError, ModelDomainError
from .params import MAX_DISTILL_ROUNDS, Record

SUM_TOLERANCE = 1e-12


class DistillMode(Enum):
    CALIBRATED = "calibrated"
    RECURRENCE = "recurrence"


class BellDiagonalState(Record):
    """Two-qubit state diagonal in the Bell basis (Phi+, Phi-, Psi+, Psi-)."""

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self):
        probs = (self.p1, self.p2, self.p3, self.p4)
        if any(p < -SUM_TOLERANCE for p in probs):
            raise ConfigError(f"Bell-diagonal probabilities must be >= 0, got {probs}")
        if abs(sum(probs) - 1.0) > SUM_TOLERANCE:
            raise ConfigError(
                f"Bell-diagonal probabilities must sum to 1, got {sum(probs)!r}"
            )

    @property
    def fidelity(self) -> float:
        return self.p1

    @classmethod
    def werner(cls, f: float) -> "BellDiagonalState":
        """Werner state of fidelity f: remaining weight spread evenly."""
        rest = (1.0 - f) / 3.0
        return cls(f, rest, rest, rest)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


class DistillationOutcome(Record):
    """One recurrence round: the kept pair's state and the round's success
    probability."""

    state: BellDiagonalState
    success_probability: float


class NestedDistillResult(Record):
    """Nested distillation of 2^rounds pairs down to one."""

    f_out: float
    pairs_nominal: int  # 2^rounds
    pairs_expected: float  # includes retries after failed rounds
    ladder: tuple[DistillationOutcome, ...]  # recurrence rounds; () when calibrated


def calibrated_distill(f_in, rounds: int):
    """Order-of-magnitude calibration: each 4 rounds divide infidelity by 10.

    f_in is a float, or a numpy array of them, which gives the array of
    results, each entry with the float operations of a call on it alone.
    An array is checked at its extremes; 1.0, a valid f_in, stands in for
    those of an empty one.
    """
    lowest, highest = (
        (f_in.min(initial=1.0), f_in.max(initial=1.0)) if hasattr(f_in, "min") else (f_in, f_in)
    )
    if not lowest > 0.5:
        raise ModelDomainError(
            f"f_in {lowest} is at or below 0.5, under the distillable threshold"
        )
    if highest > 1.0:
        raise ModelDomainError(f"f_in {highest} above 1")
    if rounds < 0:
        raise ConfigError("rounds must be >= 0")
    return 1.0 - (1.0 - f_in) * 10.0 ** (-rounds / 4.0)


def recurrence_round(a: BellDiagonalState, b: BellDiagonalState) -> DistillationOutcome:
    """One recurrence step consuming a pair of Bell-diagonal states.

    Closed-form map (derived from the density-matrix oracle, see module
    docstring): with input weights a1..a4 and b1..b4,

        N   = (a1+a4)(b1+b4) + (a2+a3)(b2+b3)
        p1' = (a1 b1 + a4 b4)/N     p2' = (a1 b4 + a4 b1)/N
        p3' = (a2 b2 + a3 b3)/N     p4' = (a2 b3 + a3 b2)/N

    N is the even-parity (success) probability.
    """
    a1, a2, a3, a4 = a.as_tuple()
    b1, b2, b3, b4 = b.as_tuple()
    n = (a1 + a4) * (b1 + b4) + (a2 + a3) * (b2 + b3)
    if n <= 0.0:
        raise DegenerateInputError("recurrence step has zero success probability")
    out = BellDiagonalState(
        (a1 * b1 + a4 * b4) / n,
        (a1 * b4 + a4 * b1) / n,
        (a2 * b2 + a3 * b3) / n,
        (a2 * b3 + a3 * b2) / n,
    )
    return DistillationOutcome(state=out, success_probability=n)


def recurrence_ladder(f_in: float, rounds: int) -> list[DistillationOutcome]:
    """Per-round outcomes of nested recurrence distillation.

    Each round twirls the previous output to a Werner state (so a scalar
    fidelity suffices between rounds) and distills two copies.
    """
    if not 0.5 < f_in <= 1.0:
        raise ModelDomainError(f"f_in {f_in} outside (0.5, 1]")
    if rounds < 0:
        raise ConfigError("rounds must be >= 0")
    ladder = []
    f = f_in
    for _ in range(rounds):
        w = BellDiagonalState.werner(f)
        out = recurrence_round(w, w)
        ladder.append(out)
        f = out.state.fidelity
    return ladder


def nested_distill(f_in: float, rounds: int, mode: DistillMode) -> NestedDistillResult:
    """Distill 2^rounds pairs down to one.

    Calibrated mode consumes exactly 2^rounds pairs. Recurrence mode also
    reports the expected consumption 2^rounds / prod(p_success_i) once
    failed rounds are retried, and returns the ladder of rounds it ran.
    Rounds outside [0, MAX_DISTILL_ROUNDS] are rejected, the same range
    that policy.distill_rounds accepts.
    """
    if not 0 <= rounds <= MAX_DISTILL_ROUNDS:
        raise ConfigError(f"rounds out of [0, {MAX_DISTILL_ROUNDS}]")
    pairs = 2**rounds
    if mode is DistillMode.CALIBRATED:
        return NestedDistillResult(calibrated_distill(f_in, rounds), pairs, float(pairs), ())
    ladder = recurrence_ladder(f_in, rounds)
    f_out = ladder[-1].state.fidelity if ladder else f_in
    expected = float(pairs)
    for outcome in ladder:
        expected /= outcome.success_probability
    return NestedDistillResult(f_out, pairs, expected, tuple(ladder))
