import math
import random
import sys
from collections import Counter
from decimal import Decimal, getcontext
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from xyyx import exact
from xyyx.errors import (
    FactorizationBudgetExceeded,
    NonIntegerValue,
    NonIntegralExponent,
    NonPositiveParameter,
)
from xyyx.exact import (
    MAX_PRECISION_BITS,
    ONE,
    PrimePowerProduct,
    digit_count,
    digit_limit,
    exceeds_digits,
    factorize,
    is_prime,
    log10_interval,
)
from xyyx.solutions import euler_solution

PPP = PrimePowerProduct

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 97, 10007)


def ppp_from(exps: dict) -> PrimePowerProduct:
    return PPP(tuple(sorted((p, F(e)) for p, e in exps.items() if e != 0)))


# Prime-power products with rational exponents, as {prime: exponent}.
products = st.dictionaries(
    st.sampled_from(SMALL_PRIMES),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    max_size=4,
).map(ppp_from)
exponents = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def multiply_back(pairs):
    out = 1
    for p, e in pairs:
        out *= p**e
    return out


class TestFactorize:
    def test_one_gives_empty_product(self):
        assert factorize(1) == []

    def test_known_values(self):
        assert factorize(288) == [(2, 5), (3, 2)]
        assert factorize(157464) == [(2, 3), (3, 9)]
        assert factorize(30375) == [(3, 5), (5, 3)]

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveParameter):
            factorize(0)

    def test_multiply_back_dense_range(self):
        for m in range(1, 20001):
            pairs = factorize(m)
            assert multiply_back(pairs) == m
            assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})

    def test_multiply_back_random_to_million(self):
        rng = random.Random(387)
        for _ in range(300):
            m = rng.randrange(1, 10**6 + 1)
            assert multiply_back(factorize(m)) == m

    def test_table_values(self):
        for m in (2304, 1728, 576, 17496, 104976, 52488, 72, 30375, 151875, 91125):
            pairs = factorize(m)
            assert multiply_back(pairs) == m
            assert all(is_prime(p) for p, _ in pairs)
        assert [n for n in range(-3, 14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]

    def test_large_semiprime_beyond_trial_division(self):
        n = 1000003 * 1000033
        assert factorize(n) == [(1000003, 1), (1000033, 1)]
        assert factorize(4099 * 4111) == [(4099, 1), (4111, 1)]  # just above 2^12
        assert factorize(4099 * 1000003) == [(4099, 1), (1000003, 1)]

    def test_prime_power_beyond_trial_division(self):
        n = 1000003**2
        assert factorize(n) == [(1000003, 2)]
        assert factorize(4099**2) == [(4099, 2)]
        assert factorize(4093**3 * 4099**5) == [(4093, 3), (4099, 5)]

    def test_cube_of_a_twenty_digit_prime_factors(self):
        # the perfect-power test takes the cube root before rho, which used
        # to spend its whole budget and raise FactorizationBudgetExceeded
        p = 10000000000000000051
        assert factorize(p**3) == [(p, 3)]
        assert factorize(2 * p**3) == [(2, 1), (p, 3)]

    def test_roots_only_past_the_residue_test(self, monkeypatch):
        # 4099^1368 * 4111 is no perfect power, yet its size admits the 218
        # prime exponents up to 1366, and each of them used to take a root
        calls = []
        iroot = exact._iroot
        monkeypatch.setattr(exact, "_iroot", lambda n, k: calls.append(k) or iroot(n, k))
        assert factorize(4099**1368 * 4111) == [(4099, 1368), (4111, 1)]
        assert len(calls) <= 16
        # 1369 = 37^2: both 37th roots pass the residue test
        assert factorize(4099**1369) == [(4099, 1369)]

    def test_ten_digit_primes_split_within_the_rho_budget(self):
        assert factorize(9999999929 * 9999999943) == [(9999999929, 1), (9999999943, 1)]

    def test_rho_budget_names_the_unsplit_composite(self):
        n = 10000000000000000051 * 30000000000000000041
        with pytest.raises(FactorizationBudgetExceeded, match=f"no factor of {n} "):
            factorize(n)
        # the budget is per call: a cofactor times small primes fails the same way
        with pytest.raises(FactorizationBudgetExceeded, match=f"no factor of {n} "):
            factorize(12 * n)


# primes on both sides of the trial-division limit, and above 10^6
PRIMES_BELOW_LIMIT = [p for p in range(exact._TRIAL_LIMIT - 100, exact._TRIAL_LIMIT) if is_prime(p)]
PRIMES_ABOVE_LIMIT = [p for p in range(exact._TRIAL_LIMIT, exact._TRIAL_LIMIT + 100) if is_prime(p)]
PRIMES_ABOVE_MILLION = [1000003, 1000033, 1000037, 1000039]


class TestFactorizeAcrossTheTrialLimit:
    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(PRIMES_BELOW_LIMIT + PRIMES_ABOVE_LIMIT + PRIMES_ABOVE_MILLION),
            st.integers(1, 60),
            min_size=1,
            max_size=4,
        )
    )
    def test_returns_the_factors_a_product_was_built_from(self, exps):
        n = 1
        for p, e in exps.items():
            n *= p**e
        assert factorize(n) == sorted(exps.items())

    def test_prime_pools_straddle_the_limit(self):
        assert PRIMES_BELOW_LIMIT[-1] < exact._TRIAL_LIMIT < PRIMES_ABOVE_LIMIT[0]
        assert len(PRIMES_BELOW_LIMIT) >= 5 and len(PRIMES_ABOVE_LIMIT) >= 5


class QuotientCountingInt(int):
    """An int that counts the quotients taken of it and of the quotients it yields.

    Remainders (``%``) are not counted: they are trial division's
    divisibility tests, not the divisions that strip a prime power.
    """

    quotients = 0

    def __floordiv__(self, other):
        QuotientCountingInt.quotients += 1
        return QuotientCountingInt(int(self) // other)

    def __divmod__(self, other):
        QuotientCountingInt.quotients += 1
        q, r = divmod(int(self), other)
        return QuotientCountingInt(q), r


class TestStripByRepeatedSquaring:
    def count_quotients(self, m):
        QuotientCountingInt.quotients = 0
        pairs = factorize(QuotientCountingInt(m))
        return pairs, QuotientCountingInt.quotients

    def test_a_prime_power_costs_logarithmically_many_quotients(self):
        # dividing 601 out one power at a time took 600 quotients
        pairs, quotients = self.count_quotients(601**600)
        assert pairs == [(601, 600)]
        assert 0 < quotients <= 3 * math.log2(600)

    def test_euler_600_values(self):
        # `xyyx euler 600` factors (601/600)^600 and (601/600)^601; the
        # quotients grow with the bits of each exponent, not the exponent
        x, y = euler_solution(600)
        for m in (x.numerator, x.denominator, y.numerator, y.denominator):
            pairs, quotients = self.count_quotients(m)
            assert multiply_back(pairs) == m
            assert 0 < quotients <= 3 * sum(e.bit_length() for _, e in pairs)


class TestPrimePowerProduct:
    def test_validation(self):
        with pytest.raises(ValueError):
            PPP(((4, F(1)),))  # not prime
        with pytest.raises(ValueError):
            PPP(((3, F(1)), (2, F(1))))  # not ascending
        with pytest.raises(ValueError):
            PPP(((2, F(0)),))  # zero exponent

    def test_from_fraction_examples(self):
        assert PPP.from_fraction(F(1)) == ONE
        assert PPP.from_fraction(F(2, 3)) == PPP(((2, F(1)), (3, F(-1))))
        assert PPP.from_fraction(F(30375, 8)) == PPP(((2, F(-3)), (3, F(5)), (5, F(3))))
        with pytest.raises(NonPositiveParameter):
            PPP.from_fraction(F(-2, 3))
        with pytest.raises(NonPositiveParameter):
            PPP.from_fraction(F(0))

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(200):
            q = F(rng.randrange(1, 5000), rng.randrange(1, 5000))
            assert PPP.from_fraction(q).to_fraction() == q

    def test_mul_examples(self):
        two = PPP(((2, F(1)),))
        assert two * two**-1 == ONE
        assert PPP(((2, F(1, 2)),)) * PPP(((2, F(1, 3)),)) == PPP(((2, F(5, 6)),))
        assert PPP(((2, F(5)), (3, F(2)))) * PPP(((2, F(3)),)) == PPP(((2, F(8)), (3, F(2))))

    def test_mul_homomorphism_random(self):
        rng = random.Random(7)
        for _ in range(120):
            q1 = F(rng.randrange(1, 400), rng.randrange(1, 400))
            q2 = F(rng.randrange(1, 400), rng.randrange(1, 400))
            assert PPP.from_fraction(q1 * q2) == PPP.from_fraction(q1) * PPP.from_fraction(q2)

    def test_pow_examples(self):
        sixteen = PPP.from_int(16)
        assert sixteen ** F(0) == ONE
        assert sixteen ** F(-1, 2) == PPP(((2, F(-2)),))
        assert (sixteen ** F(-1, 2)).to_fraction() == F(1, 4)
        u = PPP(((2, F(5)), (3, F(2))))
        assert u ** F(1, 3) == PPP(((2, F(5, 3)), (3, F(2, 3))))

    def test_pow_law_random(self):
        rng = random.Random(41)
        for _ in range(100):
            u = PPP.from_fraction(F(rng.randrange(1, 300), rng.randrange(1, 300)))
            r = F(rng.randrange(-6, 7), rng.randrange(1, 5))
            s = F(rng.randrange(-6, 7), rng.randrange(1, 5))
            assert (u**r) ** s == u ** (r * s)

    def test_to_fraction_requires_integral_exponents(self):
        with pytest.raises(NonIntegralExponent):
            PPP(((2, F(1, 2)),)).to_fraction()

    def test_primes_are_validated_once(self, monkeypatch):
        # Miller-Rabin runs in the public constructor; products built from
        # validated products or from factorize do not test their primes again
        u = PPP(((2, F(3)), (1000003, F(1, 2))))
        calls = []
        monkeypatch.setattr(exact, "is_prime", lambda n: calls.append(n) or True)
        v = PPP.from_fraction(F(12, 35))
        assert (u * v).factors == ((2, 5), (3, 1), (5, -1), (7, -1), (1000003, F(1, 2)))
        assert (u ** F(-2, 3)).factors == ((2, -2), (1000003, F(-1, 3)))
        assert calls == []

    def test_str(self):
        assert str(ONE) == "1"
        assert str(PPP(((2, F(5)), (3, F(2))))) == "2^5 * 3^2"
        assert str(PPP(((2, F(-3)), (3, F(1, 2))))) == "2^(-3) * 3^(1/2)"


def assert_canonical(u: PrimePowerProduct) -> None:
    """Every exponent of u is an int if integral, else a non-integral Fraction."""
    for p, e in u.factors:
        assert type(e) is int or (type(e) is F and e.denominator != 1), (p, e)


class TestCanonicalExponents:
    def test_factorized_values_have_int_exponents(self):
        for u in (PPP.from_int(720), PPP.from_fraction(F(30375, 8)), PPP.from_fraction(F(7))):
            assert u.factors and all(type(e) is int for _, e in u.factors)

    def test_products_and_powers_have_int_exponents(self):
        u = PPP(((2, F(5)), (3, F(2))))
        assert all(type(e) is int for _, e in u.factors)
        product = u * PPP.from_fraction(F(3, 8))
        assert product.factors == ((2, 2), (3, 3))
        assert all(type(e) is int for _, e in product.factors)
        # fractional exponents that sum or multiply to whole numbers
        half = PPP(((2, F(1, 2)),))
        assert type((half * half).factors[0][1]) is int
        assert PPP.from_int(16) ** F(1, 2) == PPP(((2, 2),))
        assert type((PPP.from_int(16) ** F(1, 2)).factors[0][1]) is int
        assert all(type(e) is int for _, e in ((u ** F(1, 3)) ** 3).factors)
        assert all(type(e) is int for _, e in (u ** F(-4, 2)).factors)

    def test_constructor_normalises_integral_fractions(self):
        u = PPP(((2, F(3)), (5, F(1, 2))))
        assert type(u.factors[0][1]) is int
        assert type(u.factors[1][1]) is F
        assert PPP(((2, 3),)) == PPP(((2, F(3)),))
        assert hash(PPP(((2, 3),))) == hash(PPP(((2, F(3)),)))

    def test_non_integral_exponents_stay_fractions(self):
        u = PPP.from_int(12) ** F(1, 3)
        assert u.factors == ((2, F(2, 3)), (3, F(1, 3)))
        assert all(type(e) is F for _, e in u.factors)
        assert type((u * PPP.from_int(2)).factors[0][1]) is F

    def test_constructor_accepts_an_int(self):
        assert PPP(((2, 3), (3, -1))).to_fraction() == F(8, 3)

    @pytest.mark.parametrize("e", [True, 1.0, 0, F(0)])
    def test_constructor_refuses(self, e):
        with pytest.raises(ValueError, match="nonzero int or Fraction"):
            PPP(((2, e),))

    @pytest.mark.parametrize("r", [0.1, 2.0, True, "1/2", None])
    def test_pow_refuses_non_rational_exponents(self, r):
        with pytest.raises(ValueError, match=f"int or a Fraction, got {r!r}"):
            PPP.from_int(2) ** r

    @settings(max_examples=100, deadline=None)
    @given(products, products, exponents)
    def test_every_operation_gives_canonical_exponents(self, a, b, r):
        for u in (a, b, a * b, a**r, (a**r) ** 4, a * b**-1):
            assert_canonical(u)


# 48*log10(2), computed independently with the decimal module at 60 digits
LOG10_2POW48 = "14.4494397918710973702594669467756652848731143101812099829005"


class TestLog10Interval:
    def test_empty_product_is_zero_width(self):
        enc = log10_interval(ONE, 128)
        assert 0 in enc
        with mp.workprec(160):
            assert mp.mpf(enc.delta.b) < mp.ldexp(1, -124)

    def test_ten_contains_exactly_one(self):
        ten = PPP.from_int(10)
        assert 1 in log10_interval(ten, 128)

    def test_power_of_two(self):
        enc = log10_interval(PPP(((2, F(48)),)), 256)
        getcontext().prec = 60
        target = Decimal(LOG10_2POW48)
        with mp.workprec(280):
            lo, hi = mp.mpf(enc.a), mp.mpf(enc.b)
            assert mp.mpf(str(target - Decimal("1e-55"))) < lo <= hi
            assert hi < mp.mpf(str(target + Decimal("1e-55")))

    def test_width_shrinks_with_precision(self):
        u = PPP.from_int(12345)
        with mp.workprec(600):
            w128 = mp.mpf(log10_interval(u, 128).delta.b)
            w512 = mp.mpf(log10_interval(u, 512).delta.b)
        assert w512 < w128

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            log10_interval(ONE, 32)

    def test_rejects_precision_above_the_ceiling(self):
        with pytest.raises(ValueError, match="precision_bits must be <= 65536"):
            log10_interval(ONE, MAX_PRECISION_BITS + 1)


class TestDigitCount:
    def test_one(self):
        assert digit_count(ONE) == 1

    def test_2_pow_48(self):
        assert 2**48 == 281474976710656
        assert digit_count(PPP(((2, F(48)),))) == 15

    def test_small_integers_exhaustive(self):
        for n in list(range(1, 2000)) + [10**6 - 1, 10**6, 10**6 + 1]:
            assert digit_count(PPP.from_int(n)) == len(str(n)), n

    def test_random_integers_below_million(self):
        rng = random.Random(55)
        for _ in range(400):
            n = rng.randrange(1, 10**6)
            assert digit_count(PPP.from_int(n)) == len(str(n)), n

    def test_powers_of_two_up_to_512(self):
        for k in range(1, 513):
            assert digit_count(PPP(((2, F(k)),))) == len(str(2**k)), k

    def test_exact_powers_of_ten(self):
        # log10 is an exact integer: the enclosure always straddles it, and the
        # count is settled on the exponent vector, never by building 10^k
        for k in (1, 5, 30, 1000, 10**6):
            u = PPP(((2, F(k)), (5, F(k))))
            assert digit_count(u) == k + 1

    def test_near_power_of_ten_widens(self, monkeypatch):
        # log10(10^22 - 1) = 22 - 1.9e-23: the first enclosure, 64 bits below
        # the point, straddles 22, and a wider one pins the count
        widths = []

        def spy(u, precision_bits):
            widths.append(precision_bits)
            return log10_interval(u, precision_bits)

        monkeypatch.setattr(exact, "log10_interval", spy)
        assert digit_count(PPP.from_int(10**22 - 1)) == 22
        assert widths == [64, 128]

    def test_rejects_non_integer_values(self):
        with pytest.raises(NonIntegerValue):
            digit_count(PPP(((2, F(-1)),)))
        with pytest.raises(NonIntegerValue):
            digit_count(PPP(((2, F(1, 2)),)))


class TestAlgebraProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6))
    def test_fraction_round_trip(self, q):
        assert PPP.from_fraction(q).to_fraction() == q

    @settings(max_examples=100, deadline=None)
    @given(products, products, products)
    def test_multiplication_is_an_abelian_group(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * ONE == a
        assert a * a**-1 == ONE

    @settings(max_examples=100, deadline=None)
    @given(products, products, exponents, exponents)
    def test_power_laws(self, a, b, r, s):
        assert (a**r) ** s == a ** (r * s)
        assert (a * b) ** r == a**r * b**r
        assert a**r * a**s == a ** (r + s)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from(SMALL_PRIMES), st.integers(0, 80), max_size=5))
    def test_digit_count_matches_decimal_length(self, exps):
        n = 1
        for p, e in exps.items():
            n *= p**e
        assert digit_count(ppp_from(exps)) == len(str(n))


class TestDigitLimit:
    def test_a_limit_switched_off_reads_the_default(self):
        saved = sys.get_int_max_str_digits()
        try:
            for limit, expected in ((0, sys.int_info.default_max_str_digits), (640, 640), (4300, 4300), (9000, 9000)):
                sys.set_int_max_str_digits(limit)
                assert digit_limit() == expected, limit
        finally:
            sys.set_int_max_str_digits(saved)
        assert sys.int_info.default_max_str_digits == 4300

    @pytest.mark.parametrize("limit", [640, 641, 4300])
    def test_exceeds_digits_is_the_interpreters_refusal(self, limit, monkeypatch):
        ten = 10**limit
        cases = [0, 1, -7, ten // 10, ten - 1, ten, ten + 1, -(ten - 1), -ten, 2 ** (3 * limit), 2 ** (4 * limit), 3**5000]
        # the long term in the numerator, then in the denominator; 3 divides ten - 1
        cases += [F(ten - 1, 2), F(ten, 3), F(-ten - 1, 3), F(2 ** (3 * limit), 3), F(3**5000, 2)]
        cases += [F(3, ten - 1), F(7, ten), F(-1, ten + 1), F(ten - 1, ten), F(1, 2 ** (4 * limit))]
        # 2^e 3^f has log2_bounds (e + f, 2 (e + f)), which tell short from long
        # for e + f <= 3 limit / 2 and e + f >= 4 limit, and cannot tell near 10^limit
        products = [ONE, ppp_from({2: 3 * limit // 2}), ppp_from({2: 4 * limit}), ppp_from({3: -4 * limit})]
        for f in (0, 1, limit // 2, limit):
            e = (ten // 3**f).bit_length() - 1  # 2^e 3^f < 10^limit < 2^(e + 2) 3^f
            for k in (e, e + 1, e + 2):
                u = ppp_from({2: k, 3: f})
                products += [u, u**-1, ppp_from({2: k, 3: -f - 1})]
        to_fraction = PPP.to_fraction
        calls = []
        monkeypatch.setattr(PPP, "to_fraction", lambda u: calls.append(u) or to_fraction(u))
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for i, value in enumerate(cases + products):
                calls.clear()
                term = to_fraction(value) if isinstance(value, PPP) else value
                try:
                    str(term)
                    refused = False
                except ValueError:
                    refused = True
                assert exceeds_digits(value, limit) is refused, (limit, i)
                if isinstance(value, PPP):
                    # to_fraction runs only where the bounds cannot tell, and so does the build
                    lo, hi = exact.log2_bounds(value)
                    assert bool(calls) is (3 * limit < hi and lo < 4 * limit), (limit, value)
                    assert exceeds_digits(None, limit, (lo, hi)) is (None if calls else refused), (limit, value)
                    built = []
                    assert exceeds_digits(lambda: built.append(term) or term, limit, (lo, hi)) is refused
                    assert bool(built) is bool(calls), (limit, value)
        finally:
            sys.set_int_max_str_digits(saved)
        refusals = Counter()
        for u in products:
            lo, hi = exact.log2_bounds(u)
            refusals[exceeds_digits(None, limit, (lo, hi)), exceeds_digits(u, limit)] += 1
        # short and long by the bounds alone, and both answers where they cannot tell
        assert set(refusals) == {(False, False), (True, True), (None, False), (None, True)}, refusals
