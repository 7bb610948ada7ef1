"""Solution families of x^y = y^x and x^y y^x = v^w w^v, with exact verification.

Equality of positive reals built from prime powers is decided on exponent
vectors: x^y y^x = v^w w^v holds iff y*vec(x) + x*vec(y) = w*vec(v) + v*vec(w),
because logarithms of distinct primes are linearly independent over Q.

The vectors need not be taken over primes.  Pairwise-coprime integers
q_1, ..., q_k > 1 are multiplicatively independent: if prod q_i^(c_i) = 1
with integer c_i, then a prime p of q_i divides no other q_j, so
c_i v_p(q_i) = 0 and c_i = 0.  Their logarithms are then linearly
independent over Q too, and vectors over any such base decide the same
equality.  An identity given as values, prod a^b on each side with
positive rationals a and b, is decided by _holds on a base taken from the
a themselves by factor refinement (_coprime_base; Bach, Driscoll and
Shallit, "Factor refinement", J. Algorithms 15, 1993; Bernstein, "Factoring
into coprimes in essentially linear time", J. Algorithms 54, 2005), so it
needs gcds and exact divisions only: no primality test, no rho and no
budget.  verify_power_equation, verify_fractions and
transforms.closed_equality_check all decide this way.  The verdicts on
values this module builds, family tuples and Euler and search rows, stay
on the vectors the values are built from, which are cheaper there than
refining a base from the values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from mpmath import iv, mp

from .errors import (
    DegenerateParameters,
    NonPositiveParameter,
    NonRationalTuple,
    OversizedValue,
    PointBudgetExceeded,
)
from .exact import (
    ONE,
    PrimePowerProduct,
    _prime_divisors,
    _strip,
    check_positive,
    check_precision,
    digit_limit,
    exceeds_digits,
    factorize,
    iv_precision,
    log_interval,
)

# The largest search box, in (b, c) pairs; the size of transforms.POINT_BUDGET.
SEARCH_BUDGET = 10**7


@dataclass(frozen=True)
class SolutionTuple:
    """One solution (x, y, v, w) of x^y y^x = v^w w^v.

    params holds the generating parameters (a, b, c or b, c) when applicable.
    as_fractions keeps the members' values in the instance's __dict__, outside
    the compared and hashed fields: those given to manual_tuple, those a search
    row is built from, or else the members multiplied out once.
    """

    x: PrimePowerProduct
    y: PrimePowerProduct
    v: PrimePowerProduct
    w: PrimePowerProduct
    params: tuple[Fraction, ...] = ()

    def values(self) -> tuple[PrimePowerProduct, PrimePowerProduct, PrimePowerProduct, PrimePowerProduct]:
        return (self.x, self.y, self.v, self.w)

    @property
    def is_rational(self) -> bool:
        return all(u.is_rational for u in self.values())

    def as_fractions(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        fractions = self.__dict__.get("_fractions")
        if fractions is None:
            irrational = [name for name, u in zip("xyvw", self.values()) if not u.is_rational]
            if irrational:  # named, not printed: a member's exponents may pass the digit limit
                raise NonRationalTuple(f"tuple has irrational members: {', '.join(irrational)}")
            fractions = self.__dict__["_fractions"] = tuple(u.to_fraction() for u in self.values())
        return fractions

    def __str__(self) -> str:
        return "(%s, %s, %s, %s)" % self.values()


def _cancels(left, right) -> bool:
    """Whether sum(b vec(a)) over the (b, factors of a) terms of left equals that over right.

    Each b is scaled to an int by a common denominator, so the one difference
    map is built in int arithmetic, with no gcd per prime; the factors'
    exponents must be ints.
    """
    d = math.lcm(*(b.denominator for b, _ in left + right))
    diff: dict[int, int] = {}
    for sign, terms in ((1, left), (-1, right)):
        for b, factors in terms:
            k = sign * b.numerator * (d // b.denominator)
            for p, e in factors:
                diff[p] = diff.get(p, 0) + k * e
    return not any(diff.values())


@dataclass(frozen=True)
class TrivialityVerdict:
    trivial: bool
    reason: str  # "multiset-equal" | "contains-one" | "none"


def euler_solution(n: int) -> tuple[Fraction, Fraction]:
    """The n-th rational solution of x^y = y^x: x = (1+1/n)^n, y = (1+1/n)^(n+1).

    Refuses an n whose y has a numerator m^m, m = n + 1, of more than digit_limit()
    decimal digits (n >= 1370 at the default 4300), by exceeds_digits on its bounds.
    """
    if n < 1:
        raise NonPositiveParameter(f"n must be >= 1, got {n}")
    m, limit = n + 1, digit_limit()
    if exceeds_digits(lambda: m**m, limit, (m * m.bit_length() - m, m * m.bit_length())):
        raise OversizedValue(f"n = {n} is too large: the numerator of y = ((n+1)/n)^(n+1)", limit)
    base = Fraction(n + 1, n)
    return base**n, base ** (n + 1)


def _euler_verdict(n: int, x: Fraction, y: Fraction, factor) -> bool:
    """verify_power_equation(x, y) for the n-th Euler row, on the vectors the row is built from.

    With d = vec(n+1) - vec(n), n and n + 1 being coprime, x = ((n+1)/n)^n
    has vec(x) = n d and y = x (n+1)/n has vec(y) = (n+1) d, so factor, a
    factorize, is asked for n and n + 1 only.  x and y themselves, the values
    the row prints, stay the multipliers, so a wrong x or y gives False.
    """
    d = [(p, -e) for p, e in factor(n)] + factor(n + 1)
    return _cancels([(y, [(p, n * e) for p, e in d])], [(x, [(p, (n + 1) * e) for p, e in d])])


def verify_power_equation(x: Fraction, y: Fraction) -> bool:
    """Exact check of x^y = y^x for positive rationals, on a coprime base (_holds).

    A value at or below 0 is refused first, x before y.
    """
    x, y = Fraction(x), Fraction(y)
    check_positive(x)
    check_positive(y)
    return _holds([(x, y)], [(y, x)])


def general_solution(a: Fraction, b: Fraction, c: Fraction) -> SolutionTuple:
    """Solution with y = a*x, v = b*x, w = c*x, where x = (b^c c^b / a)^(1/(a-b-c+1)).

    x may be irrational; it is returned as a prime-power product with rational
    exponents.  Requires a > 0, b > 0, c > 0 and a+1 != b+c.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0 or a + 1 == b + c:
        raise DegenerateParameters(f"need a != 0 and a+1 != b+c, got a={a}, b={b}, c={c}")
    if b <= 0 or c <= 0:
        raise NonPositiveParameter(f"b and c must be positive, got b={b}, c={c}")
    if a < 0:
        raise NonPositiveParameter(f"scalar multiplier a must be positive, got a={a}")
    fa, fb, fc = (PrimePowerProduct.from_fraction(q).factors for q in (a, b, c))
    return _family(a, b, c, fa, fb, fc, (a, b, c))


def rational_family(b: int, c: int) -> SolutionTuple:
    """The always-rational family a = b+c: x = b^c c^b/(b+c), y = b^c c^b, v = bx, w = cx."""
    if b < 1 or c < 1:
        raise NonPositiveParameter(f"b and c must be >= 1, got b={b}, c={c}")
    return _family(b + c, b, c, factorize(b + c), factorize(b), factorize(c), (Fraction(b), Fraction(c)))


def _family(a, b, c, fa, fb, fc, params: tuple[Fraction, ...]) -> SolutionTuple:
    """The tuple y = a x, v = b x, w = c x from the exponent lists fa, fb and fc of a, b and c.

    Each member is one exponent map: x = (c vec(b) + b vec(c) - vec(a)) / t
    with t = a - b - c + 1, then y = x + vec(a), v = x + vec(b) and
    w = x + vec(c).  For t = 1, the a = b + c family, no Fraction is made
    from int a, b and c.
    """
    x = {p: c * e for p, e in fb}
    for p, e in fc:
        x[p] = x.get(p, 0) + b * e
    for p, e in fa:
        x[p] = x.get(p, 0) - e
    t = a - b - c + 1
    if t != 1:
        x = {p: e / t for p, e in x.items()}
    y, v, w = x.copy(), x.copy(), x.copy()
    for member, f in ((y, fa), (v, fb), (w, fc)):
        for p, e in f:
            member[p] = member.get(p, 0) + e
    m = PrimePowerProduct._from_map
    return SolutionTuple(m(x), m(y), m(v), m(w), params=params)


def verify_product_equation(t: SolutionTuple) -> bool:
    """Exact check of x^y y^x = v^w w^v for a rational-valued tuple:
    y vec(x) + x vec(y) = w vec(v) + v vec(w)."""
    x, y, v, w = t.as_fractions()
    return _cancels([(y, t.x.factors), (x, t.y.factors)], [(w, t.v.factors), (v, t.w.factors)])


def _coprime_base(numbers: set[int]) -> list[int]:
    """A pairwise-coprime base of numbers: each is a product of powers of its elements.

    Factor refinement: while a number shares a gcd g > 1 with an element of
    the base, both are replaced by g and their cofactors, and 1s are
    dropped.  Every power of g is stripped from both at once, by repeated
    squaring (exact._strip), so that a power such as 1370^1369 is not
    refined one factor of 1370 at a time.  g times the two cofactors is at
    most the product of the pair over g, so the refinement ends.
    """
    base: list[int] = []
    todo = [n for n in numbers if n > 1]
    while todo:
        n = todo.pop()
        for i, q in enumerate(base):
            g = math.gcd(n, q)
            if g > 1:
                del base[i]
                todo += [m for m in (g, _strip(n, g)[0], _strip(q, g)[0]) if m > 1]
                break
        else:
            base.append(n)
    return base


def _holds(left, right) -> bool:
    """Whether prod a^b over the (a, b) pairs of left equals that over right; a and b positive rationals.

    The vectors vec(a) are taken over the _coprime_base of every a's
    numerator and denominator (module docstring), so no number is factored,
    and the b are the multipliers of _cancels.
    """
    sides = (left, right)
    base = _coprime_base({m for side in sides for a, _ in side for m in (a.numerator, a.denominator)})
    vec = lambda a: [(q, _strip(a.numerator, q)[1] - _strip(a.denominator, q)[1]) for q in base]
    return _cancels(*([(b, vec(a)) for a, b in side] for side in sides))


def verify_fractions(x: Fraction, y: Fraction, v: Fraction, w: Fraction) -> bool:
    """Exact check of x^y y^x = v^w w^v for four positive rationals, on a coprime base (_holds).

    A value at or below 0 is refused first, in x, y, v, w order.
    """
    x, y, v, w = values = [Fraction(q) for q in (x, y, v, w)]
    for q in values:
        check_positive(q)
    return _holds([(x, y), (y, x)], [(v, w), (w, v)])


def manual_tuple(x: Fraction, y: Fraction, v: Fraction, w: Fraction) -> SolutionTuple:
    """The tuple of four positive rationals; its as_fractions returns them, multiplying nothing out."""
    values = tuple(map(Fraction, (x, y, v, w)))
    return _with_fractions(SolutionTuple(*map(PrimePowerProduct.from_fraction, values)), values)


def _with_fractions(t: SolutionTuple, values: tuple[Fraction, ...]) -> SolutionTuple:
    """t, with values, the Fractions of its members, as its as_fractions cache."""
    t.__dict__["_fractions"] = values
    return t


class NumericVerdict(NamedTuple):
    ok: bool
    residual: object  # mpmath interval enclosing log(x^y y^x) - log(v^w w^v)


def numeric_verify(t: SolutionTuple, precision_bits: int = 256) -> NumericVerdict:
    """Interval check of |log(x^y y^x) - log(v^w w^v)| at the given precision.

    True when the residual interval contains 0 and is narrower than
    2^(-precision_bits/2) * max(1, |y log x + x log y|), a cut relative to the
    size of the logs that cancel, so large x, y, v, w do not fail at low
    precision.  Works for irrational tuples, where the exact exponent-vector
    comparison does not apply.
    """
    check_precision(precision_bits)
    with iv_precision(precision_bits):
        logs = [log_interval(u) for u in t.values()]
        vals = [iv.exp(lg) for lg in logs]
        lx, ly, lv, lw = logs
        x, y, v, w = vals
        left = y * lx + x * ly
        residual = left - (w * lv + v * lw)
        with mp.workprec(precision_bits + 8):
            width = mp.mpf(residual.delta.b)
            scale = max(1, mp.mpf(abs(left).b))
            ok = (0 in residual) and width < mp.ldexp(scale, -(precision_bits // 2))
        return NumericVerdict(ok, residual)


def classify_triviality(t: SolutionTuple) -> TrivialityVerdict:
    """Two-rule triviality heuristic.

    Trivial with reason "multiset-equal" when {x,y} = {v,w} as multisets
    (the equation is symmetric in each pair), else trivial with reason
    "contains-one" when 1 appears among the four values, else nontrivial.
    Borderline cases like (1/2, 1/2, 1/2, 1) land on the trivial side here
    via the contains-one rule.
    """
    return _triviality(t.values(), ONE)


def _triviality(values: tuple, one) -> TrivialityVerdict:
    """classify_triviality's two rules on four values (x, y, v, w); one is the value 1 in their type."""
    x, y, v, w = values
    if (x == v and y == w) or (x == w and y == v):
        return TrivialityVerdict(True, "multiset-equal")
    if one in values:
        return TrivialityVerdict(True, "contains-one")
    return TrivialityVerdict(False, "none")


def _y_exceeds(b: int, c: int, digits: int) -> bool:
    """Whether y = b^c c^b has more than digits decimal digits, by exceeds_digits on y's bit bound."""
    return exceeds_digits(lambda: b**c * c**b, digits, (0, c * b.bit_length() + b * c.bit_length()))


def check_search_box(b_max: int, c_max: int) -> None:
    """Refuse search bounds below 1, and boxes of more than SEARCH_BUDGET (b, c) pairs."""
    if b_max < 1 or c_max < 1:
        raise NonPositiveParameter(f"bounds must be >= 1, got ({b_max}, {c_max})")
    if b_max * c_max > SEARCH_BUDGET:
        raise PointBudgetExceeded(
            f"the {b_max} x {c_max} search box has {b_max * c_max} (b, c) pairs, "
            f"more than the limit of {SEARCH_BUDGET}"
        )


def _integral_pairs(b_max: int, c_max: int, digits: int) -> list[tuple[int, int]]:
    """The (b, c) of the integral rows of the box, in (b, c)-lexicographic order, from one walk.

    The divisibility of b^c c^b by s = b+c is decided without building
    b^c c^b: it holds iff every prime of s divides gcd(b, c).  A prime p of
    s dividing b^c c^b divides b or c, and so both, as p | s.  Conversely,
    if p | gcd(b, c), then v_p(b^c c^b) >= b+c = s > v_p(s).  As a prime of
    s that divides b divides c = s - b too, the test is rad(s) | b.  So
    the rows are found from the member with the smaller bound, m: for each
    m = 2..min(b_max, c_max), the s in (m, m + max(b_max, c_max)] built
    only from m's primes (_smooth), which one _prime_divisors sieve lists;
    m = 1 has none, as s >= 2.  The work grows with the rows and the
    smaller bound, not with the box.  A box of more than SEARCH_BUDGET
    pairs is refused first (check_search_box).

    With digits >= 1, the rows are then walked in order, and the first row
    with a value of more than digits decimal digits is refused, raising
    OversizedValue naming it as "solutions[i].x" or ".y", before any row is
    built.  As x = y/(b+c) <= v, w < y = b^c c^b, the row's first value past
    the limit is x or y, and y is built only past its bit-length bound
    (_y_exceeds).  y grows with b and c, so a box whose corner y is short
    has no row to check.
    """
    check_search_box(b_max, c_max)
    low, high = sorted((b_max, c_max))
    primes_of, pairs = _prime_divisors(low), []
    for m in range(2, low + 1):
        for s in _smooth(primes_of[m], m + high):
            if s > m:
                pairs.append((m, s - m) if b_max <= c_max else (s - m, m))
    pairs.sort()
    if digits and _y_exceeds(b_max, c_max, digits):
        for i, (b, c) in enumerate(pairs):
            if _y_exceeds(b, c, digits):
                name = "x" if exceeds_digits(b**c * c**b // (b + c), digits) else "y"
                raise OversizedValue(f"solutions[{i}].{name}", digits)
    return pairs


def _smooth(primes: list[int], top: int) -> list[int]:
    """The numbers up to top built only from primes, 1 included, unordered."""
    found = [1]
    for p in primes:
        for i in range(len(found)):
            n = found[i] * p
            while n <= top:
                found.append(n)
                n *= p
    return found


def _row_values(b: int, c: int) -> tuple[int, int, int, int]:
    """The integral row's (x, y, v, w) from b and c: y = b^c c^b, x = y // (b+c), v = b x and w = c x."""
    y = b**c * c**b
    x = y // (b + c)
    return x, y, b * x, c * x


def search_integer_solutions(b_max: int, c_max: int, digits: int = 0) -> list[SolutionTuple]:
    """All-integer family tuples with 1 <= b <= b_max, 1 <= c <= c_max.

    The family value x = b^c c^b/(b+c) is integral iff (b+c) divides b^c c^b;
    the other three members are then integer multiples of x.  Results come in
    (b, c)-lexicographic order.  The rows are found once, from the primes
    of the member with the smaller bound (_integral_pairs), which also
    refuses a box of more than SEARCH_BUDGET pairs and, with digits >= 1,
    the first row with a value of more than digits decimal digits, before
    any tuple is built.

    Each integer among the b, c and b+c of the rows found is factored once,
    when a row first needs it.  Each row carries its values, built from b
    and c (_row_values), as its as_fractions cache, so no member is
    multiplied back out.
    """
    fac = functools.cache(factorize)
    return [
        _with_fractions(
            _family(b + c, b, c, fac(b + c), fac(b), fac(c), (Fraction(b), Fraction(c))),
            tuple(map(Fraction, _row_values(b, c))),
        )
        for b, c in _integral_pairs(b_max, c_max, digits)
    ]


def _row_verdict(b: int, c: int, values: tuple[int, int, int, int], factor) -> bool:
    """verify_product_equation for the search row (b, c) with int values (x, y, v, w), on its construction.

    With a = b + c, vec(x) = c vec(b) + b vec(c) - vec(a), and y = a x,
    v = b x and w = c x add vec(a), vec(b) and vec(c) to it.  The sum
    y vec(x) + x vec(y) - w vec(v) - v vec(w) is then, for any four
    multipliers and k = x + y - v - w,
    (k c - w) vec(b) + (k b - v) vec(c) + (x - k) vec(a), so one _cancels
    call over factor(b), factor(c) and factor(a), a factorize, decides it;
    no map is merged or sorted.  The values, the ones the row prints, stay
    the multipliers, so a wrong value gives False.
    """
    x, y, v, w = values
    k = x + y - v - w
    return _cancels([(k * c - w, factor(b)), (k * b - v, factor(c)), (x - k, factor(b + c))], [])


def _search_rows(b_max: int, c_max: int, digits: int) -> list[tuple[int, int, tuple[int, ...], bool]]:
    """(b, c, values, verified) for each tuple of search_integer_solutions(b_max, c_max, digits).

    The same one walk and the same values, as ints, with no tuple built:
    each row is decided by _row_verdict, each of b, c and b + c factored
    once.
    """
    factor = functools.cache(factorize)
    rows = []
    for b, c in _integral_pairs(b_max, c_max, digits):
        values = _row_values(b, c)
        rows.append((b, c, values, _row_verdict(b, c, values, factor)))
    return rows
