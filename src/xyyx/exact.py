"""Exact arithmetic foundation.

Positive reals of the form prod p^(e_p) with rational exponents e_p are kept
as explicit prime-exponent vectors, so equalities between huge powers (think
288^2304 * 2304^288) reduce to comparing small lists of exponents.  An
integral exponent is a plain ``int`` and only a non-integral one a
``fractions.Fraction``, so the common all-integer case runs on machine ints.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, mp

from .errors import (
    FactorizationBudgetExceeded,
    NonIntegerValue,
    NonIntegralExponent,
    NonPositiveParameter,
)

_TRIAL_LIMIT = 1 << 12
_RHO_STEPS = 1 << 20  # rho iterations per factorize call; see factorize

# Witness set is deterministic for n < 3.3 * 10^24 (far beyond anything the
# solution families produce); larger inputs get a fixed strong-probable test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with a fixed witness set."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: random.Random, steps: int) -> tuple[int, int]:
    """A nontrivial factor of the odd composite n (Brent's cycle variant).

    Returns the factor and what is left of ``steps``, the budget of
    iterations y -> y^2 + c (mod n).  A doubling round of length r takes 2r
    iterations and is charged in full before it starts; the backtrack after
    a batch whose product hit 0 re-walks at most that batch.  Raises
    FactorizationBudgetExceeded naming n when the next round would overrun.
    """
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if 2 * r > steps:
                raise FactorizationBudgetExceeded(
                    f"no factor of {n} found within {_RHO_STEPS} rho steps"
                )
            steps -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, steps


def _prime_divisors(n: int) -> list[list[int]]:
    """The primes dividing each of 0..n, ascending; [] for 0 and 1."""
    primes_of: list[list[int]] = [[] for _ in range(n + 1)]
    for q in range(2, n + 1):
        if not primes_of[q]:
            for r in range(q, n + 1, q):
                primes_of[r].append(q)
    return primes_of


def _strip(m: int, p: int) -> tuple[int, int]:
    """m with every factor p divided out, and the exponent of p in m; p >= 2 need not be prime.

    Divides by p once, strips p^2 the same way, then divides by p once
    more if it can: exponent e costs about 2 log2(e) divisions, not e.
    """
    q, r = divmod(m, p)
    if r:
        return m, 0
    m, e = _strip(q, p * p)
    q, r = divmod(m, p)
    return (m, 2 * e + 1) if r else (q, 2 * e + 2)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1 and k >= 2, by Newton's method from above.

    The start is the root of n's top half, rounded up, so a few steps do.
    """
    b = n.bit_length() // k
    if b < 52:
        x = int(math.exp(math.log(n) / k) * (1 + 2**-30)) + 1
    else:
        s = b // 2
        x = (_iroot(n >> (k * s), k) + 1) << s
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_small_prime(n: int) -> bool:
    """Primality by trial division, for the exponents and moduli of _perfect_power."""
    return n > 1 and all(n % j for j in range(2, math.isqrt(n) + 1))


def _perfect_power(n: int, f: int) -> tuple[int, int]:
    """(r, k) with n = r^k and k largest, for n whose primes are all >= f.

    Such an n = r^k has k <= log(n)/log(f), so only the prime k up to that
    bound are tried, each until n is not a k-th power.  A k whose residue
    test fails takes no root: for the least prime l = 1 (mod k), a k-th
    power n has n^((l-1)/k) = 0 or 1 (mod l), which other n meet about once
    in k.
    """
    k_all = 1
    k = 2
    while n.bit_length() > k * (f.bit_length() - 1):
        if _is_small_prime(k):
            ell = next(ell for ell in itertools.count(k + 1, k) if _is_small_prime(ell))
            if pow(n % ell, (ell - 1) // k, ell) <= 1:
                r = math.isqrt(n) if k == 2 else _iroot(n, k)
                if r**k == n:
                    n, k_all = r, k_all * k
                    continue
        k += 1
    return n, k_all


def _trial_divide(m: int, e: int, f: int, limit: int, out: dict[int, int]) -> tuple[int, int]:
    """Strip the candidates f, f + 4, f + 6, f + 10, ... below limit from m.

    The candidates are 6k+1 and 6k+5 from f = 6k+1, and e times each prime's
    exponent goes to out.  Stops early once f^2 > m, so every prime of what
    is left is >= the f returned with it.
    """
    while f * f <= m and f < limit:
        for p in (f, f + 4):
            if m % p == 0:
                m, j = _strip(m, p)
                out[p] = out.get(p, 0) + e * j
        f += 6
    return m, f


def _factor_hard(n: int, e: int, f: int, out: dict[int, int], steps: int) -> int:
    """Add e times the exponents of n's primes, all >= f >= _TRIAL_LIMIT, to out.

    n is reduced to its root if it is a perfect power.  Trial division then
    runs on from f for bitlen(n)^2 / 32 more, which costs about as much as
    one Miller-Rabin round on n (measured at 1024 to 8192 bits), in doubling
    ranges; a range that strips a prime sends what is left back here.  So
    trial division never costs much more than the primality tests it
    spares, and a huge n sheds its middling primes before is_prime and rho.
    Every prime rho brings out is stripped from n whole.  Returns the rho
    steps left.
    """
    if n == 1:
        return steps
    n, k = _perfect_power(n, f)
    e *= k
    limit = f + (n.bit_length() ** 2 >> 5)
    while f < limit and f * f <= n:
        m, f = _trial_divide(n, e, f, min(2 * f, limit), out)
        if m < n:
            return _factor_hard(m, e, f, out, steps)
    if f * f > n or is_prime(n):
        out[n] = out.get(n, 0) + e
        return steps
    d, steps = _brent_rho(n, random.Random(n), steps)
    primes: dict[int, int] = {}
    steps = _factor_hard(d, 1, f, primes, steps)
    for p in primes:
        n, j = _strip(n, p)
        out[p] = out.get(p, 0) + e * j
    return _factor_hard(n, e, f, out, steps)


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as (prime, exponent) pairs, primes ascending.

    Trial division below _TRIAL_LIMIT = 2^12, then _factor_hard for any
    remaining cofactor; m = 1 gives the empty list.  Each prime found is
    stripped by _strip, dividing by its squarings up and back down, so
    p^e costs about 2 log2(e) big divisions rather than e.

    The cofactor has only primes >= 2^12.  Before anything else it is
    tested for a perfect power r^k, k <= log(m)/log(2^12), and replaced by
    r, so rho never splits a prime power, and 1000003^200 costs a few
    integer roots.  The cofactor is then trial divided further, for about
    as long as one Miller-Rabin round on it takes, which is a short range
    below a few hundred bits; without that, 4099^1368 * 4111 would spend
    12 s in is_prime on its 16430 bits.  Brent's rho splits the rest.

    Rho finds a prime factor p after about sqrt(p) iterations, so without a
    bound a product of two 20-digit primes would run for hours.  All rho
    calls of one factorize share _RHO_STEPS = 2^20 iterations (about 0.5 s
    on a 40-digit number, pure Python), and running out raises
    FactorizationBudgetExceeded naming the composite left unsplit.  Over 20
    random semiprimes each (rho's split of a cofactor that is no perfect
    power), two primes in (2^12, 2^13) split within 2^8 charged
    iterations, two primes near 10^6 within 2^13, and a smaller prime near
    10^10 within 2^19.  So the budget splits a cofactor whose primes, but
    its largest, are below about 10^10, and refuses a semiprime of two
    primes well above that.
    """
    if m < 1:
        raise NonPositiveParameter(f"factorize requires m >= 1, got {m}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        if m % p == 0:
            m, out[p] = _strip(m, p)
    m, f = _trial_divide(m, 1, 7, _TRIAL_LIMIT, out)
    if m > 1:
        if f * f > m:
            out[m] = 1
        else:
            _factor_hard(m, 1, f, out, _RHO_STEPS)
    return sorted(out.items())


def check_positive(q: int | Fraction) -> None:
    """Refuse a value at or below 0, as every exact constructor of a positive value does."""
    if q <= 0:
        raise NonPositiveParameter(f"value must be positive, got {q}")


def _exponent(q: int | Fraction) -> int | Fraction:
    """The canonical form of a nonzero exponent: an int if integral, else a Fraction."""
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class PrimePowerProduct:
    """A positive real as a finite product of primes with rational exponents.

    ``factors`` holds (prime, exponent) pairs with primes strictly ascending
    and no zero exponents; the empty tuple is the number 1.  An integral
    exponent is stored as an ``int`` and a non-integral one as a
    ``Fraction``, whichever way it was given or built, so instances are
    immutable, equality is structural and two equal values always compare
    (and hash) equal regardless of how they were built.
    """

    factors: tuple[tuple[int, int | Fraction], ...] = ()

    def __post_init__(self) -> None:
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError(f"primes must be strictly ascending, got {p} after {last}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if isinstance(e, bool) or not isinstance(e, (int, Fraction)) or e == 0:
                raise ValueError(f"exponent of {p} must be a nonzero int or Fraction, got {e!r}")
            last = p
        object.__setattr__(self, "factors", tuple((p, _exponent(e)) for p, e in self.factors))

    @classmethod
    def _trusted(cls, factors: tuple[tuple[int, int | Fraction], ...]) -> "PrimePowerProduct":
        """An instance without __post_init__, for canonical factors whose primes are known prime.

        Their primes come from factorize or from products already validated,
        so Miller-Rabin runs once per prime, in the public constructor only.
        """
        u = object.__new__(cls)
        object.__setattr__(u, "factors", factors)
        return u

    @classmethod
    def _from_map(cls, exps: dict[int, int | Fraction]) -> "PrimePowerProduct":
        return cls._trusted(
            tuple([(p, e if type(e) is int else _exponent(e)) for p, e in sorted(exps.items()) if e])
        )

    @classmethod
    def from_int(cls, n: int) -> "PrimePowerProduct":
        check_positive(n)
        return cls._trusted(tuple(factorize(n)))

    @classmethod
    def from_fraction(cls, q: Fraction) -> "PrimePowerProduct":
        q = Fraction(q)
        check_positive(q)
        exps = dict(factorize(q.numerator))
        for p, e in factorize(q.denominator):  # coprime to the numerator
            exps[p] = -e
        return cls._from_map(exps)

    def __mul__(self, other: "PrimePowerProduct") -> "PrimePowerProduct":
        exps = dict(self.factors)
        for p, e in other.factors:
            exps[p] = exps.get(p, 0) + e
        return PrimePowerProduct._from_map(exps)

    def __pow__(self, r: int | Fraction) -> "PrimePowerProduct":
        if isinstance(r, bool) or not isinstance(r, (int, Fraction)):
            raise ValueError(f"exponent must be an int or a Fraction, got {r!r}")
        if r == 0:
            return ONE
        r = _exponent(r)
        return PrimePowerProduct._trusted(tuple((p, _exponent(e * r)) for p, e in self.factors))

    @property
    def is_rational(self) -> bool:
        return all(e.denominator == 1 for _, e in self.factors)

    def to_fraction(self) -> Fraction:
        """Exact rational value; requires all exponents integral."""
        num = den = 1
        for p, e in self.factors:
            if e.denominator != 1:
                raise NonIntegralExponent(f"{p}^({e}) has no rational value")
            if e > 0:
                num *= p**e
            else:
                den *= p**-e
        return Fraction(num) if den == 1 else Fraction(num, den)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for p, e in self.factors:
            if e == 1:
                parts.append(str(p))
            elif e.denominator == 1 and e > 0:
                parts.append(f"{p}^{e}")
            else:
                parts.append(f"{p}^({e})")
        return " * ".join(parts)


ONE = PrimePowerProduct()


def digit_limit() -> int:
    """The decimal digits past which a value is refused as unprintable.

    The interpreter's int-to-str limit, sys.get_int_max_str_digits(), or its
    default, sys.int_info.default_max_str_digits (4300), when that limit is
    switched off (0), so that every early refusal keeps bounding the work.
    """
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def exceeds_digits(value, limit: int, bits: tuple[int, int] | None = None) -> bool | None:
    """Whether value, an int, a Fraction, a rational PrimePowerProduct or a
    function of no arguments building one, has a term of more than limit
    decimal digits: the interpreter's own refusal of str(value) at limit.

    bits = (lo, hi), hi possibly math.inf, bound the largest term t as
    2^lo <= t <= 2^hi; they default to value's bit_length or log2_bounds.
    As 2^(3 limit) < 10^limit <= 2^(4 limit), hi <= 3 limit gives False and
    lo >= 4 limit True, building nothing.  Between them value is built and
    t compared with 10^limit; a value of None asks the bounds alone, None there.
    """
    if bits is not None:
        lo, hi = bits
    elif isinstance(value, int):  # every int a record prints; bit_length ignores the sign
        lo, hi = value.bit_length() - 1, value.bit_length()
    elif isinstance(value, Fraction):
        hi = max(value.numerator.bit_length(), value.denominator.bit_length())
        lo = hi - 1
    else:
        lo, hi = log2_bounds(value)
    if hi <= 3 * limit:
        return False
    if lo >= 4 * limit:
        return True
    if value is None:
        return None
    if callable(value):
        value = value()
    if isinstance(value, PrimePowerProduct):
        value = value.to_fraction()
    return max(abs(value.numerator), value.denominator) >= 10**limit


# One mpmath log at 2^16 bits takes about 0.4 s with the pure-Python backend,
# and its cost grows faster than the width, so a command at a much higher
# precision would seem to hang.
MAX_PRECISION_BITS = 2**16


def check_precision(precision_bits: int) -> None:
    """Refuse working precisions below 64 or above MAX_PRECISION_BITS bits."""
    if precision_bits < 64:
        raise ValueError(f"precision_bits must be >= 64, got {precision_bits}")
    if precision_bits > MAX_PRECISION_BITS:
        raise ValueError(
            f"precision_bits must be <= {MAX_PRECISION_BITS}, got {precision_bits}"
        )


@contextmanager
def iv_precision(bits: int):
    """Run the block with mpmath's interval context at bits (iv has no workprec)."""
    saved = iv.prec
    try:
        iv.prec = bits
        yield
    finally:
        iv.prec = saved


def log_interval(u: PrimePowerProduct, unit=1):
    """Enclosure of sum(e_p * (log p / unit)) at the current interval precision.

    Dividing each term, not the sum, keeps log10 enclosures bit for bit.
    """
    total = iv.mpf(0)
    for p, e in u.factors:
        coeff = iv.mpf(e.numerator) / iv.mpf(e.denominator)
        total += coeff * (iv.log(iv.mpf(p)) / unit)
    return total


def log2_bounds(u: PrimePowerProduct) -> tuple[int, int]:
    """(lo, hi) with 2^lo <= n <= 2^hi for n the larger of u's numerator and denominator.

    Read off the int exponents, as bitlen(p) - 1 <= log2 p < bitlen(p).
    """
    lo, hi = [0, 0], [0, 0]
    for p, e in u.factors:
        side = e < 0
        lo[side] += abs(e) * (p.bit_length() - 1)
        hi[side] += abs(e) * p.bit_length()
    return max(lo), max(hi)


def _whole_bits(u: PrimePowerProduct) -> int:
    """Bits of sum((|e_p| + 1) * bitlen(p)), a bound on |log10 u| as log10 p < bitlen(p)."""
    return sum((int(abs(e)) + 1) * p.bit_length() for p, e in u.factors).bit_length()


def log10_interval(u: PrimePowerProduct, precision_bits: int = 256):
    """Rigorous enclosure of log10(u) as an mpmath interval.

    precision_bits counts the bits below the point: the enclosure is taken
    precision_bits + _whole_bits(u) wide, so its width is near 2^-precision_bits.
    """
    check_precision(precision_bits)
    with iv_precision(precision_bits + _whole_bits(u)):
        return log_interval(u, iv.log(iv.mpf(10)))


def digit_count(u: PrimePowerProduct) -> int:
    """Number of base-10 digits of an integer-valued product, never multiplied out.

    Doubles the bits below the point of log10_interval, from 64, until the
    floors of both ends, read at its full width, agree.  If they straddle k,
    u = 10^k is read off the exponent vector; any other integer has an
    irrational log10, so widening ends, or check_precision refuses.
    """
    for p, e in u.factors:
        if e.denominator != 1 or e < 0:
            raise NonIntegerValue(f"not an integer value: {p}^({e})")
    if not u.factors:
        return 1
    bits = 64
    while True:
        enc = log10_interval(u, bits)
        with mp.workprec(bits + _whole_bits(u) + 8):
            lo, hi = (int(mp.floor(mp.mpf(end))) for end in (enc.a, enc.b))
        if lo == hi:
            return lo + 1
        if u.factors == ((2, hi), (5, hi)):
            return hi + 1
        bits *= 2
