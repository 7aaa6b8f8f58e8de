"""Saddle-point first-order estimates for bounded-cycle permutation counts.

Floating computations run through mpmath, except the fixed-point Newton loop
of `solve_saddle`, at DEFAULT_DPS digits or 20 digits past those of n when
that is more, and stay in log-space until the end; the exponent-polynomial
coefficients are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .cyclecount import restricted_count

DEFAULT_DPS = 40
SADDLE_BUDGET = 10**4  # largest l: a Newton step is an l-term Horner pass; (10, 10^4) takes 0.07 s


def _precision(n: int) -> int:
    """Working digits for input n: DEFAULT_DPS, or 20 past the digits of n."""
    # counted without str(n), which Python refuses past 4300 digits; the
    # float log10 can be one off next to a power of ten
    n = max(n, 1)
    digits = int(math.log10(n)) + 1
    digits += (n >= 10**digits) - (n < 10 ** (digits - 1))
    return max(DEFAULT_DPS, digits + 20)


@dataclass
class SaddleSolution:
    r_plus: mpmath.mpf
    residual: mpmath.mpf


def solve_saddle(n: int, l: int) -> SaddleSolution:
    """Unique positive root of r + r^2 + ... + r^l = n.

    Newton iteration from n^(1/l), the value and the slope from one Horner
    pass, on ints in fixed point: r = 2^k u with 2^k the largest power of
    two not above n^(1/l), and U = u 2^bits at the working precision, 20
    digits past those of n, plus guard bits.  The left side minus n is
    increasing and convex for r > 0 and nonnegative at the start, so the
    iterates fall onto the root.  A step subtracts the floor of the Newton
    correction, nonnegative while the value is at least the target, so the
    iterates fall strictly; the floor rounds a step up, so an iterate falls
    below the root only by the Horner pass's rounding error.  The integer
    iterates are bounded below, and the first step that does not fall
    leaves r at the root to the working precision.  An l past SADDLE_BUDGET
    is refused before any work.
    """
    if n < 1 or l < 1:
        raise ValueError("requires n >= 1 and l >= 1")
    if l > SADDLE_BUDGET:
        raise ValueError(f"l = {l} exceeds the saddle budget {SADDLE_BUDGET}")
    with mp.workdps(_precision(n)):
        start = mpf(n) ** (mpf(1) / l)
        # guard bits for the l truncations of a Horner pass
        bits = mp.prec + l.bit_length() + 4
    k = max(0, int(start).bit_length() - 1)  # integer parts up to about 2^l, not n
    one = 1 << bits
    target = (n << bits) >> (l * k)
    u = int(mpmath.ldexp(start, bits - k))
    while True:
        # u^l + 2^-k u^(l-1) + ... + 2^(-(l-1)k) u, n 2^(-lk) at the root
        value, slope = one, 0
        for m in range(1, l):
            slope = value + (u * slope >> bits)
            value = (u * value >> bits) + (one >> m * k)
        slope = value + (u * slope >> bits)
        value = u * value >> bits
        step = u - ((value - target) << bits) // slope
        if not step < u:
            return SaddleSolution(mpmath.ldexp(u, k - bits),
                                  mpmath.ldexp(value - target, l * k - bits))
        u = step


def log_factorial(n: int) -> mpmath.mpf:
    """ln n! as mpmath's loggamma(n + 1) at the working precision for n.

    mpmath evaluates it to the working precision, so the saddle error stays
    isolated from any Stirling truncation; the cost does not grow with n.
    """
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
    """ln of the exact count, from the integer recurrence."""
    with mp.workdps(_precision(n)):
        return mpmath.ln(mpf(restricted_count(n, l)))


def _binomial_fraction(e: Fraction, m: int) -> Fraction:
    """Generalized binomial coefficient C(e, m) for rational e."""
    out = Fraction(1)
    for i in range(m):
        out *= (e - i) / (m - i)
    return out


def eta_power_laurent(l: int, k: int, order: int) -> list[Fraction]:
    """Coefficients of x^0..x^order in ((1-x^l)/(1-x))^((l-k)/l), x = 1/r.

    eta(r)^(l-k) = r^(l-k) times this series; the generalized binomial
    series is evaluated with exact rational arithmetic.
    """
    e = Fraction(l - k, l)
    # (1 - x^l)^e
    a = [Fraction(0)] * (order + 1)
    for m in range(order // l + 1):
        a[l * m] = _binomial_fraction(e, m) * (-1) ** m
    # (1 - x)^(-e) = sum C(e+m-1, m) x^m
    b = [_binomial_fraction(e + m - 1, m) for m in range(order + 1)]
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)]


def beta_series_extraction(l: int, k: int) -> Fraction:
    """Exponent-polynomial coefficient beta_k for 0 < k < l, extracted as a
    residue: l/(k(l-k)) times the constant coefficient of eta(r)^(l-k)."""
    if not 0 < k < l:
        raise ValueError("requires 0 < k < l")
    series = eta_power_laurent(l, k, l - k)
    return Fraction(l, k * (l - k)) * series[l - k]


def beta_closed_form(l: int, k: int) -> Fraction:
    """Exponent-polynomial coefficients from the stated closed forms.

    beta_l = 1/l and beta_0 = -(1/l) sum_{j=2}^{l} 1/j.  For 0 < k < l the
    stated product formula is returned verbatim for comparison; it disagrees
    with the series extraction (e.g. 3/2 vs 1 at l=2, k=1), and the
    extracted value is what the Stirling-consistent estimate uses.  With
    e = (l-k)/l that is (1/(k (l-k)!)) prod_{m=1}^{l-k-1} (e+m), since
    (1-x^l)^e in `eta_power_laurent` is 1 to order l-k < l and the
    coefficient read is C(e+l-k-1, l-k); the stated product runs to m = l-1.
    """
    if l < 1 or not 0 <= k <= l:
        raise ValueError("requires l >= 1 and 0 <= k <= l")
    if k == l:
        return Fraction(1, l)
    if k == 0:
        return -Fraction(1, l) * sum((Fraction(1, j) for j in range(2, l + 1)), Fraction(0))
    out = Fraction(1, k * math.factorial(l - k))
    for m in range(1, l):
        out *= Fraction(l - k, l) + m
    return out


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
    if beta_source not in ("printed", "extracted"):
        raise ValueError("beta_source must be 'printed' or 'extracted'")
    if n < 1 or l < 1:
        raise ValueError("requires n >= 1 and l >= 1")
    betas = {0: beta_closed_form(l, 0), l: beta_closed_form(l, l)}
    for k in range(1, l):
        if beta_source == "printed":
            betas[k] = beta_closed_form(l, k)
        else:
            betas[k] = beta_series_extraction(l, k)
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
    is one sample per basis power, so the fit is interpolation, solved at
    high precision (the design matrix spans many orders of magnitude); any
    other number of samples raises ValueError.
    """
    powers = list(range(-4, l + 1))
    if sample_ns is None:
        # spread within [1e4, 1e6]
        count = len(powers)
        sample_ns = [
            int(round(10 ** (4 + 2 * i / (count - 1)))) for i in range(count)
        ]
    elif len(sample_ns) != len(powers):
        raise ValueError(
            f"requires {len(powers)} samples, one per power eta^-4..eta^{l}"
        )
    with mp.workdps(DEFAULT_DPS):
        rows = []
        rhs = []
        for n in sample_ns:
            eta = mpf(n) ** (mpf(1) / l)
            rows.append([eta**k for k in powers])
            rhs.append(phi_at(n, l))
        coeffs = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(rhs))
        return {k: float(coeffs[i]) for i, k in enumerate(powers) if k >= 0}
