"""Visible-point products over the first quadrant and their closed forms.

The truncated product prod (1 - X^j Y^k)^(1/k) over coprime (j, k) in a box
is evaluated in the log domain at high precision, together with a rigorous
bound on the truncation error.  Expanding each logarithm and regrouping by
m = gcd(J, K) collapses the coprime-indexed sum into the plain double series
sum X^J Y^K / K, which is what the closed forms and the tail bound rest on.

The evaluation works column by column: for each k it multiplies the factors
(1 - X^j Y^k), j coprime to k, in ascending j at extra precision, stops the
column once |X^j Y^k| falls below 2^-(p + GUARD_BITS) (1 - |X|), and adds
log(column)/k to a compensated sum, so one evaluation takes at most Nk logs.
The a-priori rounding and pruning error is below 2^-(p+8) whenever
|X|, |Y| <= 1 - 2^-14; eval_product derives the budget.

Two region conventions are supported.  "strict" is the box j, k >= 1 only and
gives the closed form (1-Y)^(X/(1-X)) for the direct product; "axis" adds the
single visible axis point (0, 1), whose factor (1-Y) lifts the exponent to
1/(1-X).  Reports always name the convention in use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from mpmath import iv, mp

from .errors import DomainViolation

# Extra working precision; results are returned carrying these guard bits so
# that structural identities (axis = strict + one factor) hold bit-exactly.
GUARD_BITS = 32


class Convention(str, Enum):
    AXIS = "axis"
    STRICT = "strict"


class Form(str, Enum):
    DIRECT = "direct"
    RECIPROCAL = "reciprocal"


@dataclass(frozen=True)
class EvalReport:
    """Record of one truncated product evaluation against its closed form."""

    product_value: object  # mpmath mpf
    log_value: object
    closed_form_value: object
    abs_log_diff: object
    tail_bound: object
    truncation: tuple[int, int]
    precision_bits: int
    convention: Convention
    form: Form


def _check_domain(X: Fraction, Y: Fraction) -> tuple[Fraction, Fraction]:
    X, Y = Fraction(X), Fraction(Y)
    if abs(X) >= 1:
        raise DomainViolation(f"|X| must be < 1, got X = {X}")
    if abs(Y) >= 1:
        raise DomainViolation(f"|Y| must be < 1, got Y = {Y}")
    return X, Y


def _check_precision(precision_bits: int) -> None:
    if precision_bits < 64:
        raise ValueError(f"precision_bits must be >= 64, got {precision_bits}")


def _mpf_q(q: Fraction):
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def visible_points(Nj: int, Nk: int, convention: Convention = Convention.AXIS) -> list[tuple[int, int]]:
    """Visible lattice points (gcd 1) in 1 <= j <= Nj, 1 <= k <= Nk, lex order.

    The axis convention prepends the single extra point (0, 1).
    """
    if Nj < 1 or Nk < 1:
        raise ValueError(f"box bounds must be >= 1, got ({Nj}, {Nk})")
    pts = [(0, 1)] if convention is Convention.AXIS else []
    gcd = math.gcd
    for j in range(1, Nj + 1):
        for k in range(1, Nk + 1):
            if gcd(j, k) == 1:
                pts.append((j, k))
    return pts


def mobius_sieve(n: int) -> list[int]:
    """mu(0..n) by a linear sieve; mu[0] is 0 by convention."""
    mu = [0] * (n + 1)
    if n >= 1:
        mu[1] = 1
    primes: list[int] = []
    is_comp = [False] * (n + 1)
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def count_visible(N: int) -> int:
    """Number of coprime pairs in [1,N]^2 via sum_d mu(d) * floor(N/d)^2."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    mu = mobius_sieve(N)
    return sum(mu[d] * (N // d) ** 2 for d in range(1, N + 1) if mu[d])


def _closed_form_exponent(X: Fraction, convention: Convention, form: Form) -> Fraction:
    if convention is Convention.AXIS:
        e = 1 / (1 - X)
    else:
        e = X / (1 - X)
    return e if form is Form.DIRECT else -e


def closed_form(
    X: Fraction,
    Y: Fraction,
    convention: Convention = Convention.AXIS,
    form: Form = Form.DIRECT,
    precision_bits: int = 256,
):
    """Closed-form value (1-Y)^e of the infinite product, e per convention/form."""
    X, Y = _check_domain(X, Y)
    _check_precision(precision_bits)
    e = _closed_form_exponent(X, convention, form)
    with mp.workprec(precision_bits + GUARD_BITS):
        return mp.exp(_mpf_q(e) * mp.log(1 - _mpf_q(Y)))


def tail_bound(
    X: Fraction,
    Y: Fraction,
    Nj: int,
    Nk: int,
    convention: Convention = Convention.AXIS,
):
    """Upper bound on the log-domain truncation error of the (Nj, Nk) box.

    Terms of the regrouped double series sum X^J Y^K / K that fall outside the
    box are covered by two geometric blocks (J > Nj, any K) and (any J,
    K > Nk); the axis convention adds the K > Nk column at J = 0.  Evaluated
    with outward-rounded interval arithmetic, so the result is a true bound.
    """
    X, Y = _check_domain(X, Y)
    ax, ay = abs(X), abs(Y)
    old = iv.prec
    iv.prec = 128
    try:
        xm = iv.mpf(ax.numerator) / iv.mpf(ax.denominator)
        ym = iv.mpf(ay.numerator) / iv.mpf(ay.denominator)
        one = iv.mpf(1)
        col = ym ** (Nk + 1) / ((Nk + 1) * (one - ym))
        bound = xm ** (Nj + 1) / (one - xm) * iv.log(one / (one - ym))
        bound += xm / (one - xm) * col
        if convention is Convention.AXIS:
            bound += col
        with mp.workprec(160):
            return mp.mpf(bound.b)
    finally:
        iv.prec = old


def eval_product(
    X: Fraction,
    Y: Fraction,
    Nj: int,
    Nk: int,
    precision_bits: int = 256,
    convention: Convention = Convention.AXIS,
    form: Form = Form.DIRECT,
) -> EvalReport:
    """Evaluate the truncated visible-point product in the log domain.

    log_value = s * sum over k of (1/k) log P_k, with s = +1 for the direct
    form and -1 for the reciprocal, and P_k the column product of the
    factors (1 - X^j Y^k) over the j <= Nj coprime to k.

    Column order.  Write p = precision_bits, u = 2^-(p + GUARD_BITS) and
    S = |X|/(1-|X|) * log(1/(1-|Y|)).  For k = 1..Nk in turn, P_k is
    multiplied out in ascending j at p + GUARD_BITS + e bits, where
    e = bitlen(Nj + Nk) + bitlen(ceil(1/(1-|XY|))) + 2 covers the growth of
    the rounding of the powers and of the up to Nj products (Higham,
    Accuracy and Stability of Numerical Algorithms, s3.1: n rounded factors
    carry relative error at most gamma_n = nu/(1-nu)).  Then log(P_k)/k is
    taken and added to a compensated sum at p + GUARD_BITS: at most Nk logs
    per evaluation.  The axis point's log(1 - Y) is added last, so that the
    axis and strict sums differ by exactly one rounded addition.

    Pruning.  A column stops at the first j with |X^j Y^k| below
    u (1-|X|); as |X| < 1 the magnitudes fall in j, so the skipped factors
    of column k carry log mass at most u/k.  Once the j = 1 factor of a
    column is below the cut, that column and all later ones are skipped.

    Error budget, to first order in u, against the exact log of the
    truncated product (T = X^j Y^k):

    * pruned mass, at most u * H_Nk (harmonic number);
    * column products, at most u * (H_Nk/2 + 3S/4): the two roundings per
      factor grow as gamma_2Nj, and the powers' relative error
      gamma_3(j+k), amplified by |T|/(1-|T|) <= |T|/(1-|XY|), sums to
      gamma_3(Nj+Nk) S/(1-|XY|); the e extra bits scale both below u;
    * logs (within one ulp), divisions and the compensated sum, at most
      5u * S, since sum_k |log P_k|/k <= sum |log(1 - |T|)|/k = S;
    * the axis term, at most u * (S + 3 |log(1-Y)|).

    The total u * (2 H_Nk + 7S + 3 |log(1-Y)|) is below 2^-(p+8) = 2^24 u
    whenever S < 2^21 and |log(1-Y)| < 2^16 (H_Nk < 32 for any box a point
    budget admits; S < 2^18 for |X|, |Y| <= 1 - 2^-14).  That is well inside
    the 2^(-p+16) precision slack the transform verdicts allow.  X = 0 skips
    every column and gives log_value == 0 exactly in the strict convention.
    """
    X, Y = _check_domain(X, Y)
    if Nj < 1 or Nk < 1:
        raise ValueError(f"box bounds must be >= 1, got ({Nj}, {Nk})")
    _check_precision(precision_bits)
    sign = 1 if form is Form.DIRECT else -1
    prec = precision_bits + GUARD_BITS
    extra = (Nj + Nk).bit_length() + math.ceil(1 / (1 - abs(X * Y))).bit_length() + 2
    gcd = math.gcd
    log = mp.log
    columns = []
    with mp.workprec(prec + extra):
        xm, ym = _mpf_q(X), _mpf_q(Y)
        one = mp.mpf(1)
        xpow = [one]
        for _ in range(Nj):
            xpow.append(xpow[-1] * xm)
        cut = mp.ldexp(one - abs(xm), -prec)
        jmax = Nj
        yk = one
        for k in range(1, Nk + 1):
            yk = yk * ym
            while jmax and abs(xpow[jmax] * yk) < cut:
                jmax -= 1
            if not jmax:
                break
            column = one
            for j in range(1, jmax + 1):
                if gcd(j, k) == 1:
                    column *= one - xpow[j] * yk
            columns.append((k, column))
    with mp.workprec(prec):
        total = mp.mpf(0)
        comp = mp.mpf(0)
        for k, column in columns:
            term = log(column) / k
            yy = term - comp
            tt = total + yy
            comp = (tt - total) - yy
            total = tt
        axis_log = log(1 - _mpf_q(Y))
        if convention is Convention.AXIS:
            total = total + axis_log
        log_value = sign * total
        product = mp.exp(log_value)
        cf_log = _mpf_q(_closed_form_exponent(X, convention, form)) * axis_log
        cf = mp.exp(cf_log)
        abs_log_diff = abs(log_value - cf_log)
    return EvalReport(
        product_value=product,
        log_value=log_value,
        closed_form_value=cf,
        abs_log_diff=abs_log_diff,
        tail_bound=tail_bound(X, Y, Nj, Nk, convention),
        truncation=(Nj, Nk),
        precision_bits=precision_bits,
        convention=convention,
        form=form,
    )


def log_double_series(
    X: Fraction,
    Y: Fraction,
    NJ: int,
    NK: int,
    precision_bits: int = 256,
):
    """Partial double sum over 1 <= J <= NJ, 1 <= K <= NK of X^J Y^K / K.

    Independent oracle for the strict/reciprocal product's logarithm: no
    coprimality enters, only plain powers, so agreement with eval_product
    cross-checks the visible-point regrouping numerically.
    """
    X, Y = _check_domain(X, Y)
    _check_precision(precision_bits)
    with mp.workprec(precision_bits + GUARD_BITS):
        xm, ym = _mpf_q(X), _mpf_q(Y)
        total = mp.mpf(0)
        comp = mp.mpf(0)
        xj = mp.mpf(1)
        for _ in range(1, NJ + 1):
            xj = xj * xm
            if xj == 0:
                break
            yk = mp.mpf(1)
            for K in range(1, NK + 1):
                yk = yk * ym
                term = xj * yk / K
                yy = term - comp
                tt = total + yy
                comp = (tt - total) - yy
                total = tt
        return total


def exact_regroup_check(X: Fraction, Y: Fraction, NJ: int, NK: int) -> bool:
    """Termwise regrouping identity on truncations, in exact rationals.

    Compares sum over coprime (j,k) and m >= 1 with jm <= NJ, km <= NK of
    (1/k) (X^j Y^k)^m / m against sum over the box of X^J Y^K / K.  This is a
    formal power-series identity, valid for any rational X, Y (convergence is
    irrelevant), and must never fail.
    """
    X, Y = Fraction(X), Fraction(Y)
    gcd = math.gcd
    lhs = Fraction(0)
    for j in range(1, NJ + 1):
        for k in range(1, NK + 1):
            if gcd(j, k) == 1:
                base = X**j * Y**k
                power = base
                m = 1
                while j * m <= NJ and k * m <= NK:
                    lhs += power / (k * m)
                    power *= base
                    m += 1
    rhs = Fraction(0)
    for J in range(1, NJ + 1):
        xj = X**J
        for K in range(1, NK + 1):
            rhs += xj * Y**K / K
    return lhs == rhs
