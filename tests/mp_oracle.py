"""Arbitrary-precision oracle for the delivery model.

Evaluates p_success, the decay-weighted success mass S, f_del and the real
peak round count k* of one link, and the fallback's share of 1 - f_del,
in mpmath at 200 bits, from the same float
inputs the library takes: the herald probability p_her per channel, the
width N, t_rep, T_coh, f_her and the round count k. S is the textbook
difference quotient q (r^k - d^k)/(r - d) with r = (1 - p_her)^N and
d = exp(-t_rep/T_coh), and q k r^(k-1) where r = d; at 200 bits its
cancellation costs nothing a double can see for |r - d| down to 1e-30.
None of it shares code with the library's log-space evaluator, which must
match it to 10^-12.
"""

import mpmath

PREC = 200


def _rates(p_her, n, t_rep, t_coh):
    """(a, q, r, d) as mpf: ln r, and the round's herald probability, miss
    and decay. r and q go through log1p and expm1: at 200 bits 1 - p_her
    would still lose a p_her of 1e-300."""
    a = n * mpmath.log1p(-mpmath.mpf(p_her))
    d = mpmath.exp(-mpmath.mpf(t_rep) / mpmath.mpf(t_coh))
    return a, -mpmath.expm1(a), mpmath.exp(a), d


def mp_point(p_her, n, t_rep, t_coh, f_her, k, rem=0.0):
    """(p_success, S, f_del) as mpf after k rounds and then rem us of storage.

    f_del = 1/2 + max(f_her - 1/2, 0) e^(-rem/T_coh) S(k).
    """
    with mpmath.workprec(PREC):
        a, q, r, d = _rates(p_her, n, t_rep, t_coh)
        if r == d:
            s = q * k * mpmath.power(r, k - 1)
        else:
            s = q * (mpmath.power(r, k) - mpmath.power(d, k)) / (r - d)
        gain = max(mpmath.mpf(f_her) - mpmath.mpf(0.5), 0)
        f_del = mpmath.mpf(0.5) + gain * mpmath.exp(-mpmath.mpf(rem) / t_coh) * s
        return -mpmath.expm1(k * a), s, f_del


def mp_fallback(p_her, n, f_her, k):
    """max(f_her - 1/2, 0) r^k as mpf: the timed-out share of 1 - f_del
    after k rounds, with r^k = exp(k N log1p(-p_her))."""
    with mpmath.workprec(PREC):
        gain = max(mpmath.mpf(f_her) - mpmath.mpf(0.5), 0)
        return gain * mpmath.exp(k * n * mpmath.log1p(-mpmath.mpf(p_her)))


def mp_peak(p_her, n, t_rep, t_coh):
    """The real k at which S peaks: e^(k (a - b)) = b/a with r = e^a, d = e^b.

    That is ln(b/a)/(a - b), or -1/a where a = b.
    """
    with mpmath.workprec(PREC):
        a = n * mpmath.log1p(-mpmath.mpf(p_her))
        b = -mpmath.mpf(t_rep) / mpmath.mpf(t_coh)
        return -1 / a if a == b else mpmath.log(b / a) / (a - b)


def rel_error(got, want):
    """|got - want| / |want| as a float, 0 where both are 0."""
    with mpmath.workprec(PREC):
        if want == 0:
            return 0.0 if got == 0 else float("inf")
        return float(abs(mpmath.mpf(got) - want) / abs(want))
