"""Exact arithmetic foundation.

Positive reals of the form prod p^(e_p) with rational exponents e_p are kept
as explicit prime-exponent vectors, so equalities between huge powers (think
288^2304 * 2304^288) reduce to comparing small lists of fractions.  Rationals
are plain ``fractions.Fraction`` throughout.
"""

from __future__ import annotations

import math
import random
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

_TRIAL_LIMIT = 10**6
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


def _factor_hard(n: int, out: dict[int, int], steps: int) -> int:
    """Count the prime factors of n in out; returns the rho steps left."""
    if n == 1:
        return steps
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return steps
    d, steps = _brent_rho(n, random.Random(n), steps)
    steps = _factor_hard(d, out, steps)
    return _factor_hard(n // d, out, steps)


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as (prime, exponent) pairs, primes ascending.

    Trial division up to 10^6, then Brent's rho for any remaining cofactor;
    m = 1 gives the empty list.

    Rho finds a prime factor p after about sqrt(p) iterations, so without a
    bound a product of two 20-digit primes would run for hours.  All rho
    calls of one factorize share _RHO_STEPS = 2^20 iterations (about 0.5 s
    on a 40-digit number, pure Python), and running out raises
    FactorizationBudgetExceeded naming the composite left unsplit.  Every
    cofactor here has only primes above 10^6; one whose smallest prime is
    below 10^10 splits within 2^18 charged iterations (worst of 20 random
    semiprimes), and a product of two primes just above 10^6 within 2^13.
    """
    if m < 1:
        raise NonPositiveParameter(f"factorize requires m >= 1, got {m}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    f = 7
    while f * f <= m and f < _TRIAL_LIMIT:
        for p in (f, f + 4):  # 6k+1, 6k+5
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
        f += 6
    if m > 1:
        if f * f > m:
            out[m] = out.get(m, 0) + 1
        else:
            _factor_hard(m, out, _RHO_STEPS)
    return sorted(out.items())


@dataclass(frozen=True)
class PrimePowerProduct:
    """A positive real as a finite product of primes with rational exponents.

    ``factors`` holds (prime, exponent) pairs with primes strictly ascending
    and no zero exponents; the empty tuple is the number 1.  Instances are
    immutable and equality is structural, so two equal values always compare
    equal regardless of how they were built.
    """

    factors: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError(f"primes must be strictly ascending, got {p} after {last}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if not isinstance(e, Fraction) or e == 0:
                raise ValueError(f"exponent of {p} must be a nonzero Fraction, got {e!r}")
            last = p

    @classmethod
    def _from_map(cls, exps: dict[int, Fraction]) -> "PrimePowerProduct":
        return cls(tuple((p, e) for p, e in sorted(exps.items()) if e != 0))

    @classmethod
    def from_int(cls, n: int) -> "PrimePowerProduct":
        if n < 1:
            raise NonPositiveParameter(f"value must be positive, got {n}")
        return cls._from_map({p: Fraction(e) for p, e in factorize(n)})

    @classmethod
    def from_fraction(cls, q: Fraction) -> "PrimePowerProduct":
        q = Fraction(q)
        if q <= 0:
            raise NonPositiveParameter(f"value must be positive, got {q}")
        exps = {p: Fraction(e) for p, e in factorize(q.numerator)}
        for p, e in factorize(q.denominator):
            exps[p] = exps.get(p, Fraction(0)) - e
        return cls._from_map(exps)

    def __mul__(self, other: "PrimePowerProduct") -> "PrimePowerProduct":
        exps = dict(self.factors)
        for p, e in other.factors:
            exps[p] = exps.get(p, Fraction(0)) + e
        return PrimePowerProduct._from_map(exps)

    def __pow__(self, r) -> "PrimePowerProduct":
        r = Fraction(r)
        if r == 0:
            return ONE
        return PrimePowerProduct(tuple((p, e * r) for p, e in self.factors))

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
                num *= p ** int(e)
            else:
                den *= p ** int(-e)
        return Fraction(num, den)

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
