"""Saddle-point first-order estimates for bounded-cycle permutation counts.

Floating computations run through mpmath at DEFAULT_DPS digits, or 20 digits
past those of n when that is more, and stay in log-space until the end; the
exponent-polynomial coefficients are exact rationals.  The saddle point is the
exception: its Newton loop runs on ints in fixed point at that precision, from
a double-precision root raised just above the true one and checked exactly,
and starts from mpmath's n^(1/l) only when that check fails or n is past
double range.  The numerical fit of Phi(eta) is polynomial interpolation in
eta, solved in Newton form in O(N^2) steps; mpmath solves no linear system
here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from .cyclecount import _count_window, restricted_count

DEFAULT_DPS = 40
# largest l of every asym action: a Newton step is an l-term Horner pass, and
# (10, 10^4) takes 0.02 s; beta_k is one product of up to l - 1 ints
SADDLE_BUDGET = 10**4
# largest l of estimate_closed_form, whose l - 1 interior products of up to
# l factors grow as l^3: (10^6, 400) takes 0.08/0.15 s (extracted/printed)
CLOSED_FORM_BUDGET = 400


def _precision(n: int) -> int:
    """Working digits for input n: DEFAULT_DPS, or 20 past the digits of n."""
    # counted without str(n), which Python refuses past 4300 digits; the
    # float log10 can be one off next to a power of ten
    n = max(n, 1)
    digits = int(math.log10(n)) + 1
    digits += (n >= 10**digits) - (n < 10 ** (digits - 1))
    return max(DEFAULT_DPS, digits + 20)


def _refuse_past_budget(l: int) -> None:
    if l > SADDLE_BUDGET:
        raise ValueError(f"l = {l} exceeds the saddle budget {SADDLE_BUDGET}")


@dataclass
class SaddleSolution:
    r_plus: mpmath.mpf
    residual: mpmath.mpf


def _horner(u: int, l: int, k: int, bits: int) -> tuple[int, int]:
    """u^l + 2^-k u^(l-1) + ... + 2^(-(l-1)k) u and its slope in u, in fixed
    point at 2^bits; at the root the value is n 2^(-lk)."""
    one = 1 << bits
    value, slope = one, 0
    for m in range(1, l):
        slope = value + (u * slope >> bits)
        value = (u * value >> bits) + (one >> m * k)
    return u * value >> bits, value + (u * slope >> bits)


def _float_root(n: int, l: int) -> float:
    """The root of r + r^2 + ... + r^l = n in doubles, by Newton from n^(1/l).

    The same Horner pass and stop rule as `solve_saddle`, in floats.  NaN
    for an n past double range; an overflow inside the loop ends it early.
    """
    try:
        target = float(n)
    except OverflowError:
        return math.nan
    r = target ** (1 / l)
    while True:
        value, slope = 1.0, 0.0
        for _ in range(1, l):
            slope = value + r * slope
            value = r * value + 1.0
        step = r - (r * value - target) / (value + r * slope)
        if not step < r:
            return r
        r = step


def solve_saddle(n: int, l: int) -> SaddleSolution:
    """Unique positive root of r + r^2 + ... + r^l = n.

    Newton iteration, the value and the slope from one Horner pass, on ints
    in fixed point: r = 2^k u with 2^k the largest power of two not above
    n^(1/l), and U = u 2^bits at the working precision, 20 digits past those
    of n, plus guard bits.  The left side minus n is increasing and convex
    for r > 0, so from a start at or above the root the iterates fall onto
    it.  The start is the double-precision root (`_float_root`) raised by a
    relative 2^-40, and the first Horner pass checks exactly that it is not
    below the root.  If the value there is below n, or the double root is
    not finite and positive (n past double range), the start is n^(1/l) from
    mpmath, which is above the root.  A step subtracts the floor of the
    Newton correction, nonnegative while the value is at least the target,
    so the iterates fall strictly; the floor rounds a step up, so an iterate
    falls below the root only by the Horner pass's rounding error.  The
    integer iterates are bounded below, and the first step that does not
    fall leaves r at the root to the working precision.  An l past
    SADDLE_BUDGET is refused before any work.
    """
    n, l = operator.index(n), operator.index(l)
    if n < 1 or l < 1:
        raise ValueError("requires n >= 1 and l >= 1")
    _refuse_past_budget(l)
    dps = _precision(n)
    # mp.prec under mp.workdps(dps), plus guard bits for the l truncations
    # of a Horner pass
    bits = dps_to_prec(dps) + l.bit_length() + 4
    k = (n.bit_length() - 1) // l  # 2^(kl) <= n < 2^((k+1)l), so u < 2 at the root
    target = (n << bits) >> (l * k)
    start = _float_root(n, l) * (1 + 2**-40)
    u = 0  # no double start: the fallback below takes over
    if 0 < start < math.inf:
        # frexp keeps the double's 53 bits exact and shifts them as an int,
        # since 2^(bits - k) is past double range at high precision
        mantissa, exponent = math.frexp(start)
        shift = exponent - 53 + bits - k
        u = int(math.ldexp(mantissa, 53))
        u = u << shift if shift >= 0 else u >> -shift
    value, slope = _horner(u, l, k, bits)
    if value < target:  # below the root, or no double start
        with mp.workdps(dps):
            u = int(mpmath.ldexp(mpmath.root(mpf(n), l), bits - k))
        value, slope = _horner(u, l, k, bits)
    while True:
        step = u - ((value - target) << bits) // slope
        if not step < u:
            return SaddleSolution(mpmath.ldexp(u, k - bits),
                                  mpmath.ldexp(value - target, l * k - bits))
        u = step
        value, slope = _horner(u, l, k, bits)


def log_factorial(n: int) -> mpmath.mpf:
    """ln n! as mpmath's loggamma(n + 1) at the working precision for n.

    mpmath evaluates it to the working precision, so the saddle error stays
    isolated from any Stirling truncation; the cost does not grow with n.
    """
    n = operator.index(n)
    with mp.workdps(_precision(n)):
        return mpmath.loggamma(n + 1)


@dataclass
class SaddleEstimate:
    r_plus: mpmath.mpf
    log_value: mpmath.mpf

    @property
    def value(self) -> mpmath.mpf:
        return mpmath.exp(self.log_value)


def estimate_saddle(n: int, l: int) -> SaddleEstimate:
    """First-order saddle-point estimate, assembled entirely in log-space:

    ln n! - ln sqrt(2 pi l n) + sum_j r^j / j - n ln r   at r = r_plus.
    """
    n, l = operator.index(n), operator.index(l)
    sol = solve_saddle(n, l)
    with mp.workdps(_precision(n)):
        r = sol.r_plus
        log_value = (
            log_factorial(n)
            - mpf(1) / 2 * mpmath.ln(2 * mpmath.pi * l * n)
            + mpmath.fsum(r**j / j for j in range(1, l + 1))
            - n * mpmath.ln(r)
        )
        return SaddleEstimate(r, log_value)


def log_exact_count(n: int, l: int) -> mpmath.mpf:
    """ln of the exact count d(n, l), bit for bit ln(mpf(restricted_count(n, l))).

    `_count_window` brackets d(n, l) to a relative width under 2^-(prec+62):
    from d(m, l) on cut ints for l = 2 and 3, and for l >= 4 from the EGF
    coefficients d(m, l)/m!, one floor division a step whatever l is; a
    d(n, l) narrower than the window comes back exact.  Rounding to nearest
    is monotone, so if its ends round alike, d(n, l) does too (Ziv's test);
    if not (rare), the exact count is built and rounded.
    """
    n, l = operator.index(n), operator.index(l)
    with mp.workdps(_precision(n)):
        low, high, s = _count_window(n, l, mp.prec + 64)
        rounded = mpf(low)
        if rounded != mpf(high):
            return mpmath.ln(mpf(restricted_count(n, l)))
        return mpmath.ln(mpmath.ldexp(rounded, s))


def _beta_product(l: int, k: int, top: int) -> Fraction:
    """(1/(k (l-k)!)) prod_{m=1}^{top} (e+m) with e = (l-k)/l, as one integer
    product: each e+m is (l-k+ml)/l."""
    return Fraction(math.prod(l - k + m * l for m in range(1, top + 1)),
                    k * math.factorial(l - k) * l**top)


def beta_series_extraction(l: int, k: int) -> Fraction:
    """Exponent-polynomial coefficient beta_k for 0 < k < l, extracted as a
    residue: l/(k(l-k)) C(e+l-k-1, l-k), e = (l-k)/l, the coefficient of
    x^(l-k) in ((1-x^l)/(1-x))^e, whose first factor is 1 below order l.
    That is (1/(k (l-k)!)) prod_{m=1}^{l-k-1} (e+m).  An l past SADDLE_BUDGET
    is refused before any work."""
    if not 0 < k < l:
        raise ValueError("requires 0 < k < l")
    _refuse_past_budget(l)
    return _beta_product(l, k, l - k - 1)


def beta_closed_form(l: int, k: int) -> Fraction:
    """Exponent-polynomial coefficients from the stated closed forms.

    beta_l = 1/l and beta_0 = -(1/l) sum_{j=2}^{l} 1/j.  For 0 < k < l the
    stated product is returned verbatim for comparison: it runs the product
    of `beta_series_extraction` on to m = l-1, not l-k-1, and so disagrees
    with the extracted value, which the Stirling-consistent estimate uses
    (3/2 vs 1 at l=2, k=1).  An l past SADDLE_BUDGET is refused first.
    """
    if l < 1 or not 0 <= k <= l:
        raise ValueError("requires l >= 1 and 0 <= k <= l")
    _refuse_past_budget(l)
    if k == l:
        return Fraction(1, l)
    if k == 0:
        return -Fraction(1, l) * sum((Fraction(1, j) for j in range(2, l + 1)), Fraction(0))
    return _beta_product(l, k, l - 1)


@dataclass
class ClosedFormEstimate:
    """Both assemblies of the closed-form estimate, in log-space.

    log_printed follows the closed form exactly as stated (no -n term in
    the exponent); log_stirling subtracts n, which is what combining the
    saddle estimate with Stirling's formula actually yields.  The two differ
    by the factor e^n; reporting both makes the discrepancy measurable.
    """

    betas: dict[int, Fraction]
    log_printed: mpmath.mpf
    log_stirling: mpmath.mpf


def estimate_closed_form(n: int, l: int, beta_source: str = "extracted") -> ClosedFormEstimate:
    """The closed form of d(n, l) in log-space (see ClosedFormEstimate):
    -ln(l)/2 + n (1 - 1/l) ln n + sum_{k=0}^{l} beta_k n^(k/l), and that minus n.

    The interior beta_k are `beta_series_extraction`'s when beta_source is
    "extracted" and `beta_closed_form`'s printed ones when it is "printed".
    Another beta_source, n < 1 or l < 1 raise ValueError, and an l past
    CLOSED_FORM_BUDGET is refused before any work.
    """
    if beta_source not in ("printed", "extracted"):
        raise ValueError("beta_source must be 'printed' or 'extracted'")
    n, l = operator.index(n), operator.index(l)
    if n < 1 or l < 1:
        raise ValueError("requires n >= 1 and l >= 1")
    if l > CLOSED_FORM_BUDGET:
        raise ValueError(f"l = {l} exceeds the closed-form budget {CLOSED_FORM_BUDGET}")
    interior = beta_closed_form if beta_source == "printed" else beta_series_extraction
    betas = {0: beta_closed_form(l, 0), l: beta_closed_form(l, l)}
    betas.update((k, interior(l, k)) for k in range(1, l))
    with mp.workdps(_precision(n)):
        nn = mpf(n)
        exponent = mpf(betas[0].numerator) / betas[0].denominator
        for k in range(1, l + 1):
            coeff = mpf(betas[k].numerator) / betas[k].denominator
            exponent += coeff * nn ** (mpf(k) / l)
        log_printed = (
            -mpf(1) / 2 * mpmath.ln(l)
            + nn * (1 - mpf(1) / l) * mpmath.ln(nn)
            + exponent
        )
        log_stirling = log_printed - nn
    return ClosedFormEstimate(betas, log_printed, log_stirling)


def phi_at(n: int, l: int) -> mpmath.mpf:
    """Phi(eta) = sum_j r^j / j - n ln(r / eta) at the saddle, eta = n^(1/l)."""
    n, l = operator.index(n), operator.index(l)
    sol = solve_saddle(n, l)
    with mp.workdps(_precision(n)):
        r = sol.r_plus
        eta = mpf(n) ** (mpf(1) / l)
        return mpmath.fsum(r**j / j for j in range(1, l + 1)) - n * mpmath.ln(r / eta)


def fit_phi_coefficients(l: int, sample_ns=None) -> dict[int, float]:
    """Fit Phi(eta) against powers eta^k, k = -4..l, in log-space samples.

    Returns the fitted coefficients for k = 0..l; used to confirm the
    closed-form beta_0 and beta_l numerically.  A few negative powers are
    included in the basis to absorb the 1/eta tail of the expansion.  There
    is one sample per basis power, so the fit is interpolation: sample i,
    sum_k c_k eta_i^k = Phi_i, times eta_i^4 says that c_(j-4), j = 0..N-1
    with N = l + 5, are the monomial coefficients of the polynomial through
    the points (eta_i, eta_i^4 Phi_i).  That Vandermonde system is solved at
    DEFAULT_DPS digits as Bjorck and Pereyra do (Math. Comp. 24, 1970):
    Newton divided differences, then the Newton form expanded to monomials,
    N(N-1)/2 divisions and as many multiply-subtracts.  Any other number of
    samples, a sample n < 1, a repeated n or l < 1 raises ValueError, and a
    float l or sample TypeError, before any saddle solve.
    """
    l = operator.index(l)
    if l < 1:
        raise ValueError("requires l >= 1")
    count = l + 5
    if sample_ns is None:
        # spread within [1e4, 1e6]
        sample_ns = [
            int(round(10 ** (4 + 2 * i / (count - 1)))) for i in range(count)
        ]
    else:
        sample_ns = [operator.index(n) for n in sample_ns]
    if len(sample_ns) != count:
        raise ValueError(f"requires {count} samples, one per power eta^-4..eta^{l}")
    for i, n in enumerate(sample_ns):
        if n < 1:
            raise ValueError(f"sample n = {n} is not positive")
        if n in sample_ns[:i]:
            raise ValueError(f"sample n = {n} is repeated")
    with mp.workdps(DEFAULT_DPS):
        etas = [mpf(n) ** (mpf(1) / l) for n in sample_ns]
        a = [eta**4 * phi_at(n, l) for n, eta in zip(sample_ns, etas)]
        for k in range(1, count):  # divided differences, in place
            for i in range(count - 1, k - 1, -1):
                a[i] = (a[i] - a[i - 1]) / (etas[i] - etas[i - k])
        for k in range(count - 2, -1, -1):  # Newton form to monomials
            for i in range(k, count - 1):
                a[i] -= etas[k] * a[i + 1]
        return {k: float(a[k + 4]) for k in range(l + 1)}
