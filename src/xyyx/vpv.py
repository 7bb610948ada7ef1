"""Visible-point products over the first quadrant and their closed forms.

The truncated product prod (1 - X^j Y^k)^(1/k) over coprime (j, k) in a box
is evaluated in the log domain at high precision, together with a rigorous
bound on the truncation error.  Expanding each logarithm and regrouping by
m = gcd(J, K) collapses the coprime-indexed sum into the plain double series
sum X^J Y^K / K, which is what the closed forms and the tail bound rest on.

The evaluation works column by column: for each k it multiplies the factors
(1 - X^j Y^k), j coprime to k, in ascending j in Python integers at extra
precision P, and stops the column once |X^j Y^k| falls below
2^-(p + GUARD_BITS) (1 - |X|).  With X = a/b and Y = c/d in lowest terms,
the factors with j bitlen(b) + k bitlen(d) <= P, a prefix of each column,
enter as their exact integer numerators b^j d^k - a^j c^k (unless b is so
wide that column 1's prefix would stop before j = PREFIX_MIN_J), and the
product of their denominators, powers of b and d, is subtracted as
R_b log b + R_d log d with exact R_b and R_d.  The rest of the column
runs in fixed point, stepping X^j Y^k from one coprime j' to the next j
by X^(j - j'), an exact fraction while its numerator and denominator are
short.  Once |X^j Y^k| falls below a second cut, about the square root of
2^-(p + GUARD_BITS), the column's remaining factors are still stepped one by one, but
their t = X^j Y^k are added up and the column is multiplied once by
1 - sum t, whose log is their sum of log(1 - t) to within the rounding
already allowed.  The columns of each doubling chain k = m, 2m, 4m, ...
(m odd) are folded into one number whose log, divided by the chain's last
k, is the chain's sum of log(column)/k.  Consecutive chain ends a, a + 1
are paired as (Q_a Q_(a+1))^a Q_a, so that one log divided by a (a + 1)
gives both chains' terms; those terms and the two denominator terms are
summed exactly with one final rounding (mp.fsum).  An evaluation thus
takes about one mpmath log per four columns of the box, one for the axis
factor 1 - Y, and log b and log d when some column has a prefix, and no
other mpmath arithmetic per point.  The a-priori rounding and pruning
error is below 2^-(p+8) whenever S + L < 2^21, with L = log(1/(1-|Y|))
and S = |X|/(1-|X|) L; eval_product derives the budget.

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
from itertools import compress

from mpmath import iv, mp

from .errors import DomainViolation, OversizedValue
from .exact import _prime_divisors, check_precision, digit_limit, exceeds_digits, iv_precision

# Extra working precision; results are returned carrying these guard bits so
# that structural identities (axis = strict + one factor) hold bit-exactly.
GUARD_BITS = 32
# Bits the logs of eval_product take beyond the width of the terms' cancellation.
LOG_GUARD_BITS = 5
# eval_product takes exact prefixes only if column 1's reaches this j: fewer
# exact factors save less than the two logs of the denominators cost.
PREFIX_MIN_J = 16


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


def check_unit(name: str, q: Fraction) -> Fraction:
    """The product parameter q as a Fraction; refuses |q| >= 1, naming it.

    A q with a term of more than digit_limit() digits is named, not printed.
    """
    q = Fraction(q)
    if abs(q) >= 1:
        if exceeds_digits(q, digit_limit()):
            raise unit_violation(name, digit_limit())
        raise DomainViolation(f"|{name}| must be < 1, got {name} = {q}")
    return q


def unit_violation(name: str, digits: int) -> DomainViolation:
    """check_unit's refusal of a parameter name with more than digits decimal digits."""
    return DomainViolation(f"|{name}| must be < 1, got {name} = {OversizedValue('a value that', digits)}")


def check_box(Nj: int, Nk: int) -> None:
    """Refuse lattice boxes with a bound below 1."""
    if Nj < 1 or Nk < 1:
        raise ValueError(f"box bounds must be >= 1, got ({Nj}, {Nk})")


def _mpf_q(q: Fraction):
    """q rounded once to the working precision."""
    return mp.fdiv(q.numerator, q.denominator)


def visible_points(Nj: int, Nk: int, convention: Convention = Convention.AXIS) -> list[tuple[int, int]]:
    """Visible lattice points (gcd 1) in 1 <= j <= Nj, 1 <= k <= Nk, lex order.

    The axis convention prepends the single extra point (0, 1).
    """
    check_box(Nj, Nk)
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
    check_box(N, N)
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
    X, Y = check_unit("X", X), check_unit("Y", Y)
    check_precision(precision_bits)
    e = _closed_form_exponent(X, convention, form)
    with mp.workprec(precision_bits + GUARD_BITS):
        return mp.exp(_mpf_q(e) * mp.log(_mpf_q(1 - Y)))


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
    X, Y = check_unit("X", X), check_unit("Y", Y)
    check_box(Nj, Nk)
    with iv_precision(128):
        bound = _tail_interval(_tail_terms(X), _tail_terms(Y), Nj, Nk, convention)
    with mp.workprec(160):
        return mp.mpf(bound.b)


def _tail_terms(q: Fraction) -> tuple:
    """|q|, 1 - |q|, -log(1 - |q|) and |q|/(1 - |q|) as intervals at the current precision.

    These are all that the tail bound takes of a parameter, whichever of X and
    Y it is; 1 - |q| is an exact Fraction first, so it never rounds to 0.
    """
    a = abs(q)
    m, r = (iv.mpf(f.numerator) / iv.mpf(f.denominator) for f in (a, 1 - a))
    return m, r, -iv.log(r), m / r


def _tail_interval(x_terms: tuple, y_terms: tuple, Nj: int, Nk: int, convention: Convention):
    """The interval whose upper end tail_bound returns, from the _tail_terms of X and Y."""
    xm, rx, _, x_ratio = x_terms
    ym, ry, y_log, _ = y_terms
    col = ym ** (Nk + 1) / ((Nk + 1) * ry)
    bound = xm ** (Nj + 1) / rx * y_log
    bound += x_ratio * col
    if convention is Convention.AXIS:
        bound += col
    return bound


def _power_steps(X: Fraction, Nj: int, P: int) -> list[tuple[int, int, int]]:
    """Steps (m, s, d) for g = 0..Nj; (t * m >> s) // d is about t * X^g.

    While g * (bitlen(num X) + bitlen(den X)) <= P/2 a step is exact,
    (num^g, 0, den^g), so a P-bit t meets only short multipliers.  Past that,
    m 2^-s is X^g on a mantissa of at least P + 1 bits: X and each further
    power are cut once, toward -inf, so its relative error is below
    (2g - 1) 2^-P.  The width is tested before any power is taken.
    """
    n, d = X.numerator, X.denominator
    short = P // 2 // (n.bit_length() + d.bit_length()) if n else Nj
    steps = [(n**g, 0, d**g) for g in range(min(short, Nj) + 1)]
    if short < Nj:
        s1 = P + 1 + d.bit_length() - n.bit_length()
        x = (n << s1) // d
        m, s = 1, 0
        for g in range(1, Nj + 1):
            m, s = m * x, s + s1
            sh = m.bit_length() - P - 1
            m, s = m >> sh, s - sh
            if g > short:
                steps.append((m, s, 1))
    return steps


def _power(q: tuple[int, int], n: int, P: int) -> tuple[int, int]:
    """(m, e) with m 2^e about Q^n, Q = q[0] 2^q[1] and q[0] > 0 of P bits.

    Left-to-right square-and-multiply, m cut back to P bits (toward 0) after
    each square and its multiply by q[0], as a chain fold is cut.  The cut
    after the i-th of the s = bitlen(n) - 1 squarings is squared s - i more
    times, so the cuts' relative losses, each below 2^(1-P), enter with
    weights adding up to 2^s - 1 <= n - 1:
    (1 - 2 (n - 1) 2^-P) Q^n <= m 2^e <= Q^n.
    """
    c, c_exp = m, e = q
    for bit in bin(n)[3:]:
        m, e = m * m, 2 * e
        if bit == "1":
            m, e = m * c, e + c_exp
        sh = m.bit_length() - P
        m, e = m >> sh, e + sh
    return m, e


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

    Column order.  Write p = precision_bits, u = 2^-(p + GUARD_BITS),
    L = log(1/(1-|Y|)), S = |X|/(1-|X|) * L and M = min(Nj, 1/(1-|X|)).
    For k = 1..Nk in turn, P_k is multiplied out in ascending j in Python
    integers at P = p + GUARD_BITS + e bits, where
    e = bitlen(Nj + Nk) + bitlen(ceil(1/((1-|XY|)(1-|X|)))) + 2, so that
    eps = 2^-P < u (1-|XY|) (1-|X|) / (4 (Nj + Nk)).  The column is an
    integer mantissa with its own exponent, cut back to P bits after every
    multiply.

    Exact prefix.  Write X = a/b and Y = c/d in lowest terms.  While
    k bitlen(d) <= P, the coprime j <= min(jmax, (P - k bitlen(d)) //
    bitlen(b)) of column k form its prefix, where b^j d^k < 2^P, provided
    column 1's would reach j = PREFIX_MIN_J (fewer exact factors save less
    than the logs of b and d cost; no column has a prefix otherwise).
    There the pair (A, B) = (a^j c^k, b^j d^k) starts from (c^k, d^k) and steps
    exactly by the tabled a^g and b^g, g = j - j' from the previous coprime
    j', and the column is multiplied by the integer B - A of at most P + 1
    bits: the factor's exact numerator.  Its denominator B is left out of
    the column; the prefix's denominators multiply to b^S_k d^(k n_k), with
    S_k the sum and n_k the count of its j, and the evaluation subtracts
    R_b log b + R_d log d, where R_b = sum S_k/k and R_d = sum n_k are held
    exactly.  Only this product of powers of the integers b and d is summed
    in closed form; every factor is still multiplied out on its own.

    Suffix.  The rest of the column runs in fixed point, scaled by
    ONE = 2^P.  Y^k is y_k = (y_(k-1) * yf) >> P.  t = X^j Y^k starts at
    (A << P) // B for the prefix's last j, or at t = y_k for j = 0 when the
    column has no prefix, and steps from the t of the previous coprime j'
    to t = (t * m >> s) // d, with (m, s, d) the step for g = j - j' from
    _power_steps: X^g's own numerator and denominator while they are
    short, X^g on a mantissa of P + 1 bits otherwise.  Each factor is
    ONE - t.  Short fractions at high precision run whole columns in the
    prefix; wide ones run all, or nearly all, in the suffix.

    First-order tail.  With M' = min(Nj, ceil(1/(1-|X|))) and
    tau = 2^-(ceil((p + GUARD_BITS)/2) + bitlen(M') + 2 +
    floor(bitlen(Nk)/2)), about sqrt(u/(16 Nk))/M', the suffix ends before
    the first j with |X^j Y^k| < tau, tested like the pruning cut below, as
    |x_j * y_k| < 2^(2P) tau, so that this j too only falls with k.  The
    factors past it, up to the pruning cut, are the column's tail: their t
    are stepped as in the suffix but only added up, and the column is
    multiplied once by ONE - sum t.  The prefix is left as it is, so a tail
    starts after it.  Every factor is still computed on its own.

    Doubling chains.  With K the number of columns that ran, Q_k = P_k for
    odd k and Q_k = Q_(k/2)^2 P_k for even k, cut back to P bits once.  The
    chain k = m, 2m, 4m, ... (m odd) ends at the one k in (K/2, K], and
    log(Q_k)/k there is, term for term, the chain's sum of log(P_k)/k (of
    log(P_k D_k)/k, with D_k the prefix denominators of column k).

    Paired chain ends.  The ceil(K/2) chain ends pair in ascending order,
    (a, a + 1) for a = floor(K/2) + 1, floor(K/2) + 3, ..., with K left
    single when their count is odd.  A pair is the virtual column
    V = (Q_a Q_(a+1))^a Q_a = Q_a^(a+1) Q_(a+1)^a, q = a (a + 1), as
    consecutive ends are coprime: the product Q_a Q_(a+1) is cut back to P
    bits, raised to the a by _power and multiplied by Q_a, so that log(V)/q
    is the sum of the two chains' terms; a single K is V = Q_K, q = K.
    Each V becomes one mpf (exactly, as it has P bits).  With
    W = R_b bitlen(b) + R_d bitlen(d), the terms log(V)/q,
    -R_b log b and -R_d log d cancel from magnitudes up to W down to the
    sum, so they are taken at w = p + GUARD_BITS + bitlen(ceil W) +
    LOG_GUARD_BITS bits (w = p + GUARD_BITS when W = 0); mp.fsum sums them
    exactly in integers and rounds once, to p + GUARD_BITS:
    ceil(ceil(K/2)/2) chain logs per evaluation, plus log b and log d when
    R_b and R_d are nonzero.  The axis
    point's log(1 - Y), with 1 - Y formed as an exact Fraction and rounded
    once, is added last, so that the axis and strict sums differ by exactly
    one rounded addition.

    Pruning.  A column stops at the first j with |X^j Y^k| below
    u (1-|X|), tested on the fixed-point powers as the integer comparison
    |x_j * y_k| < (ONE - |xf|) << (P - p - GUARD_BITS); as |X| < 1 the
    magnitudes fall in j, so the skipped factors of column k carry log mass
    at most u/k plus the test's own error.  Once the j = 1 factor of a
    column is below the cut, that column and all later ones are skipped.

    Error budget, to first order in u, against the exact log of the
    truncated product (T = X^j Y^k, t its fixed-point value):

    * every truncating shift, and every floor division of an exact step,
      loses less than one unit of eps; on negative integers both round
      toward -inf, so the loss is one-sided but still below eps.  Each
      column cut and each chain fold keeps P bits, so it loses less than
      2 eps relative;
    * powers: x_j - X^j = (x_(j-1) - X^(j-1)) X + X^(j-1) (x_1 - X) - loss,
      so |x_j - X^j| <= 2 eps min(j, 1/(1-|X|)) (the input rounding and one
      shift per step, damped by |X|), and likewise for y_k.  An exact step
      multiplies by X^g itself; a mantissa step's X^g errs by below
      2g eps relative;
    * factors, at most u * (H_Nk/4 + (L+1)/2): a prefix factor is exact.
      A suffix factor has |t - T| <= e_0 + eps M + 2 eps j |X|^j |Y|^k,
      namely its starting value's error damped by the steps after it, each
      step's loss damped by the |X|^(j - j_i) of the steps after it, and
      the mantissa steps' relative errors, which add up to at most 2 eps j
      (the last term is 0 when every step is exact).  Starting from y_k,
      e_0 = 2 eps k |X|^j; starting from the one floor division at the
      prefix's last j_0, e_0 = eps |X|^(j - j_0), whose sum over the column
      is below eps M, so either way the first term adds up to at most
      2 eps M per column after the weight 1/k.  1/(1-|T|) <= 1/(1-|XY|)
      amplifies the error in log(1 - t); summed with weights 1/k over the
      box, using sum_j |X|^j <= M, sum_(j <= Nj) j |X|^j <= M Nj,
      sum_k |Y|^k/k <= L and M (1-|X|) <= 1, the three terms give at most
      u/2, u H_Nk/4 and u L/2.  The factor 1-|X| in e is what absorbs the
      row sums.  A tail factor's t errs alike, and its error enters sum t,
      which log(1 - sum t) amplifies by at most 1/(1 - tau M) <=
      1 + 2 tau M, 1 to first order;
    * tail remainders, at most u/16: with sigma = sum |T| <= tau M over
      the tail of column k (its |T| are below tau, up to the test's error,
      and fall geometrically in j), log(1 - sum T) and sum log(1 - T)
      differ by at most tau sigma + sigma^2 <= tau^2 M (M + 1) <
      (u/16) 4^-floor(b/2), b = bitlen(Nk), as M (M + 1) < 4^bitlen(M').
      After the weights 1/k that is below (u/16) H_Nk 4^-floor(b/2) <= u/16
      over the box, as H_Nk <= 2^(b-1) <= 4^floor(b/2).  It comes out of
      the logs' u/4 below;
    * column products and chains, at most u * H_Nk/2: up to Nj cuts, after
      a multiply by ONE - t, ONE - sum t or B - A alike, carry
      relative error at most gamma_Nj = Nj nu/(1 - Nj nu) with nu = 2 eps
      (Higham, Accuracy and Stability of Numerical Algorithms, s3.1).  A
      fold doubles the relative error Q_(k/2) carries and adds its own cut,
      so the chain from m to m 2^r errs by below 2 eps (2^r - 1) relative
      and its term log(Q_k)/k by below 2 eps/m; over all chains that is
      2 eps H_Nk.  A pair (a, b), b = a + 1, carries Q_a's and Q_b's
      errors into log(V)/q as log(Q_a)/a and log(Q_b)/b do.  The cut of
      Q_a Q_b, raised to the a, adds below 2 eps a, _power's cuts below
      2 eps (a - 1) and the last multiply's cut below 2 eps: 4a eps =
      2 eps (q/a - 1) + 2 eps (q/b - 1) + 2 eps relative, so below
      2 eps (1/a + 1/b) to log(V)/q: below
      2 eps sum 1/k <= 2 eps over the ends k in (K/2, K].  Pairs need K >= 3,
      and then 2 eps (Nj + 1) H_Nk + 2 eps <= 2 eps (Nj + Nk) H_Nk <=
      u H_Nk/2;
    * pruned mass, at most u * (H_Nk + (L+1)/2): the skipped factors of
      column k carry at most (cut + delta) M / k, with cut * M <= u and the
      test's error delta <= 2 eps (M |Y|^k + k), below half the cut;
    * logs, at most u * (4S + H_Nk/4): the terms' absolute values add up
      to at most S + 2W log 2, since |log V|/q <= |log Q_a|/a +
      |log Q_b|/b and sum_k |log Q_k|/k is at most
      sum_k |log P_k|/k <= sum |log(1 - |T|)|/k = S and the denominators
      add W log 2 twice, once in the chains and once subtracted.  Each term
      takes at most three roundings at w bits (the log within one ulp, a
      multiply and a division), so errs by below 4 2^-w relative.  With
      W = 0 that is at most 3u S (a log and a division); otherwise
      4 2^-w (S + 2W log 2) < u (S/8 + log(2)/4), as
      2^(w - p - GUARD_BITS) > 32 W.  The one rounding of the sum adds u S.
      The u/4 holds that u log(2)/4 and the tail remainders' u/16; it
      comes out of the 2 H_Nk in the total, which the other items use only
      7/4 of (H_Nk >= 1 once a column runs).  mp.fsum drops a term, or its
      running sum, only when it lies more than 2 (p + GUARD_BITS) bits
      below the other, so at most Nk + 2 drops lose (Nk + 2) u^2 (S + 2W),
      second order in u, as every prefix point has j bitlen(b) +
      k bitlen(d) <= P, so W <= Nj P H_Nk;
    * the axis term, at most u * (S + 3 |log(1-Y)| + 1): the rounding of
      the exact 1 - Y (u), the log's ulp (2u |log(1-Y)|) and the final
      addition (u (S + |log(1-Y)|)); nothing cancels.

    The total u * (2 H_Nk + 2 + L + 5S + 3 |log(1-Y)|) is below
    2^-(p+8) = 2^24 u whenever S + L < 2^21, as |log(1-Y)| <= L (H_Nk < 32
    for any box a point budget admits; S + L < 2^18 for
    |X|, |Y| <= 1 - 2^-14).  That is well inside the 2^(-p+16) precision
    slack the transform verdicts allow.  X = 0 skips every column and gives
    log_value == 0 exactly in the strict convention.
    """
    X, Y = check_unit("X", X), check_unit("Y", Y)
    check_box(Nj, Nk)
    check_precision(precision_bits)
    sign = 1 if form is Form.DIRECT else -1
    prec = precision_bits + GUARD_BITS
    amp = math.ceil(1 / ((1 - abs(X * Y)) * (1 - abs(X))))
    extra = (Nj + Nk).bit_length() + amp.bit_length() + 2
    P = prec + extra
    ONE = 1 << P
    xn, xd, yn, yd = X.numerator, X.denominator, Y.numerator, Y.denominator
    xf = (xn << P) // xd
    yf = (yn << P) // yd
    xpow = [ONE]
    for _ in range(Nj):
        xpow.append((xpow[-1] * xf) >> P)
    cut = (ONE - abs(xf)) << (P - prec)
    # the first-order tail's cut tau = 2^-tau_bits, on the same scale ONE^2
    M = min(Nj, -(-xd // (xd - abs(xn))))  # M' = min(Nj, ceil(1/(1-|X|)))
    tau_bits = (prec + 1) // 2 + M.bit_length() + 2 + Nk.bit_length() // 2
    tail_cut = 1 << (2 * P - tau_bits)
    primes_of = _prime_divisors(Nk)
    bx, by = xd.bit_length(), yd.bit_length()
    top = P if PREFIX_MIN_J * bx + by <= P else 0  # prefixes while k by <= top
    ya, yb = 1, 1  # yn^k and yd^k while k * by <= top
    # sum_k log(prefix denominators of column k)/k = R_b log b + R_d log d,
    # with R_b = rb/rq, its terms added as plain ints
    rb, rq, R_d = 0, 1, 0
    folded = []  # (mantissa, exponent) of Q_k times its prefix denominators
    jmax = jmul = Nj  # factors j <= jmul are multiplied in, the rest of the column is its tail
    yk = ONE
    for k in range(1, Nk + 1):
        yk = (yk * yf) >> P
        while jmax and abs(xpow[jmax] * yk) < cut:
            jmax -= 1
        if not jmax:
            break
        while jmul and abs(xpow[jmul] * yk) < tail_cut:
            jmul -= 1
        if k == 1:  # jmax only falls, so no later gap exceeds this one
            steps = _power_steps(X, jmax, P)
            xnum, xden = [1], [1]
            for _ in range(min(jmax, P // bx)):
                xnum.append(xnum[-1] * xn)
                xden.append(xden[-1] * xd)
        coprime = bytearray(b"\1") * jmax  # coprime[j - 1]: gcd(j, k) == 1
        for q in primes_of[k]:
            coprime[q - 1::q] = bytes(jmax // q)
        short = 0  # the exact prefix: j <= short, where b^j d^k < 2^P
        if k * by <= top:
            ya, yb = ya * yn, yb * yd
            short = min(jmax, (P - k * by) // bx)
        prefix = list(compress(range(1, short + 1), coprime))
        mid = max(short, min(jmul, jmax))  # the suffix's coprime j lie in (short, mid]
        c, c_exp = ONE, -P * (1 + coprime.count(1, short, mid))  # ONE - t brings 2^-P
        t, i = yk, 0
        if prefix:
            A, B = ya, yb
            for j in prefix:  # factor (B - A)/B, its numerator exact
                A, B = A * xnum[j - i], B * xden[j - i]
                i = j
                c *= B - A
                sh = c.bit_length() - P
                c >>= sh
                c_exp += sh
            rb, rq = rb * k + sum(prefix) * rq, rq * k
            R_d += len(prefix)
            t = (A << P) // B
        for j in compress(range(i + 1, mid + 1), coprime[i:mid]):
            m, s, d = steps[j - i]
            t = (t * m >> s) // d
            i = j
            c *= ONE - t
            sh = c.bit_length() - P
            c >>= sh
            c_exp += sh
        tail = 0
        for j in compress(range(i + 1, jmax + 1), coprime[i:]):
            m, s, d = steps[j - i]
            t = (t * m >> s) // d
            i = j
            tail += t
        if tail:
            c *= ONE - tail
            sh = c.bit_length() - P
            c >>= sh
            c_exp += sh - P
        if not k & 1:
            f, f_exp = folded[k // 2 - 1]
            c *= f * f
            sh = c.bit_length() - P
            c >>= sh
            c_exp += 2 * f_exp + sh
        folded.append((c, c_exp))
    chains = []  # (q, V) with log(V)/q the sum of its ends' log(Q_k)/k
    with mp.workprec(P):  # wide enough to hold each P-bit V exactly
        K = len(folded)
        for a in range(K // 2 + 1, K, 2):  # the ends a, a + 1 in (K/2, K]
            (m, e), (n, f) = folded[a - 1], folded[a]
            v = m * n
            sh = v.bit_length() - P
            v, v_exp = _power((v >> sh, e + f + sh), a, P)  # (Q_a Q_(a+1))^a
            v *= m
            sh = v.bit_length() - P
            chains.append((a * (a + 1), mp.mpf((v >> sh, v_exp + e + sh))))
        if (K - K // 2) & 1:  # K is left single
            chains.append((K, mp.mpf(folded[-1])))
    # the terms cancel from about W = R_b bitlen(b) + R_d bitlen(d) down to the sum
    wide = -(-(rb * bx + R_d * by * rq) // rq)  # ceil(W)
    with mp.workprec(prec + (wide and wide.bit_length() + LOG_GUARD_BITS)):
        terms = [mp.log(v) / q for q, v in chains]
        if rb:
            terms.append(-mp.log(xd) * rb / rq)
        if R_d:
            terms.append(-R_d * mp.log(yd))
    with mp.workprec(prec):
        total = mp.fsum(terms)
        axis_log = mp.log(_mpf_q(1 - Y))
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
    X, Y = check_unit("X", X), check_unit("Y", Y)
    check_precision(precision_bits)
    with mp.workprec(precision_bits + GUARD_BITS):
        xm, ym = _mpf_q(X), _mpf_q(Y)
        xpow = [xm**J for J in range(1, NJ + 1)]
        ypow = [ym**K for K in range(1, NK + 1)]
        return mp.fsum(xj * yk / K for xj in xpow for K, yk in enumerate(ypow, 1))


def exact_regroup_check(X: Fraction, Y: Fraction, NJ: int, NK: int) -> bool:
    """Termwise regrouping identity on truncations, in exact rationals.

    Compares sum over the strict visible points (j,k) of the box
    (visible_points) and m >= 1 with jm <= NJ, km <= NK of
    (1/k) (X^j Y^k)^m / m against sum over the box of X^J Y^K / K.  This is a
    formal power-series identity, valid for any rational X, Y (convergence is
    irrelevant), and must never fail.
    """
    X, Y = Fraction(X), Fraction(Y)
    lhs = Fraction(0)
    for j, k in visible_points(NJ, NK, Convention.STRICT):
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
