import functools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from xyyx.errors import DomainViolation
from xyyx.vpv import (
    GUARD_BITS,
    Convention,
    Form,
    closed_form,
    count_visible,
    eval_product,
    exact_regroup_check,
    log_double_series,
    mobius_sieve,
    tail_bound,
    visible_points,
)

AXIS, STRICT = Convention.AXIS, Convention.STRICT
DIRECT, RECIPROCAL = Form.DIRECT, Form.RECIPROCAL


def mpf_q(q: F):
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


class TestVisiblePoints:
    def test_single_cell(self):
        assert visible_points(1, 1, STRICT) == [(1, 1)]
        assert visible_points(1, 1, AXIS) == [(0, 1), (1, 1)]

    def test_two_by_two(self):
        assert visible_points(2, 2, STRICT) == [(1, 1), (1, 2), (2, 1)]
        assert visible_points(2, 2, AXIS) == [(0, 1), (1, 1), (1, 2), (2, 1)]

    def test_all_points_coprime_and_ordered(self):
        pts = visible_points(30, 17, STRICT)
        assert all(math.gcd(j, k) == 1 for j, k in pts)
        assert pts == sorted(pts)
        assert all(1 <= j <= 30 and 1 <= k <= 17 for j, k in pts)

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            visible_points(0, 1, STRICT)


class TestCountVisible:
    def test_known_values(self):
        # frozen from direct enumeration
        for n, expected in ((1, 1), (2, 3), (4, 11), (10, 63), (37, 863)):
            assert count_visible(n) == expected

    def test_matches_enumeration(self):
        for n in list(range(1, 61)) + [100, 250, 500]:
            assert count_visible(n) == len(visible_points(n, n, STRICT)), n

    def test_mobius_sieve_small(self):
        assert mobius_sieve(10)[1:] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


class TestClosedForm:
    def test_axis_reciprocal_sixteen(self):
        val = closed_form(F(1, 2), F(3, 4), AXIS, RECIPROCAL, 256)
        assert abs(val - 16) < mp.mpf("1e-70")

    def test_strict_direct_at_x_zero_is_one(self):
        assert closed_form(F(0), F(1, 2), STRICT, DIRECT, 128) == 1
        assert closed_form(F(0), F(-9, 10), STRICT, DIRECT, 128) == 1

    def test_axis_direct_at_x_zero(self):
        val = closed_form(F(0), F(1, 2), AXIS, DIRECT, 128)
        assert abs(val - F(1, 2)) < mp.mpf("1e-30")

    def test_axis_reciprocal_fractional_exponent(self):
        # (1 - 1/5)^(-1/(1 - 1/10)) = (4/5)^(-10/9), via mp.power independently
        val = closed_form(F(1, 10), F(1, 5), AXIS, RECIPROCAL, 256)
        with mp.workprec(320):
            expected = mp.power(mp.mpf(4) / 5, -mp.mpf(10) / 9)
            assert abs(val - expected) < mp.mpf("1e-70")

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            closed_form(F(3, 2), F(1, 2), AXIS, DIRECT, 128)
        with pytest.raises(DomainViolation):
            closed_form(F(1, 2), F(-1), AXIS, DIRECT, 128)


def brute_force_product(X, Y, Nj, Nk, convention, form, prec):
    """Independent oracle: multiply the factors directly via powers and roots."""
    with mp.workprec(prec):
        xm, ym = mpf_q(X), mpf_q(Y)
        prod = mp.mpf(1)
        for j, k in visible_points(Nj, Nk, convention):
            prod *= mp.power(1 - xm**j * ym**k, mp.mpf(1) / k)
        return 1 / prod if form is RECIPROCAL else prod


class TestEvalProduct:
    def test_x_zero_strict_product_is_exactly_one(self):
        r = eval_product(F(0), F(7, 9), 50, 50, 128, STRICT, DIRECT)
        assert r.product_value == 1
        assert r.log_value == 0

    @pytest.mark.parametrize(
        "X,Y,conv,form",
        [
            (F(1, 2), F(3, 4), AXIS, RECIPROCAL),
            (F(1, 3), F(1, 2), STRICT, DIRECT),
            (F(-1, 2), F(2, 3), AXIS, DIRECT),
            (F(2, 5), F(-3, 7), STRICT, RECIPROCAL),
        ],
    )
    def test_matches_brute_force_oracle(self, X, Y, conv, form):
        r = eval_product(X, Y, 25, 25, 256, conv, form)
        oracle = brute_force_product(X, Y, 25, 25, conv, form, 320)
        assert abs(r.product_value - oracle) < mp.mpf("1e-60")

    @pytest.mark.parametrize(
        "X,Y",
        [(F(1, 3), F(1, 2)), (F(-1, 2), F(2, 3)), (F(1, 10), F(1, 5)), (F(2, 5), F(-3, 7))],
    )
    @pytest.mark.parametrize("conv", [AXIS, STRICT])
    def test_closed_form_law(self, X, Y, conv):
        r = eval_product(X, Y, 120, 120, 256, conv, DIRECT)
        slack = mp.ldexp(1, -256 + 16)
        assert r.abs_log_diff <= r.tail_bound + slack

    def test_small_parameters_converge_to_closed_form(self):
        r = eval_product(F(1, 10), F(1, 5), 80, 80, 256, AXIS, RECIPROCAL)
        expected = closed_form(F(1, 10), F(1, 5), AXIS, RECIPROCAL, 256)
        assert abs(r.product_value - expected) < mp.mpf("1e-55")

    def test_convention_relation_is_bit_exact(self):
        for form, sign in ((DIRECT, 1), (RECIPROCAL, -1)):
            ra = eval_product(F(1, 3), F(2, 5), 40, 40, 128, AXIS, form)
            rs = eval_product(F(1, 3), F(2, 5), 40, 40, 128, STRICT, form)
            with mp.workprec(128 + GUARD_BITS):
                expected = rs.log_value + sign * mp.log(1 - mpf_q(F(2, 5)))
            assert ra.log_value == expected

    def test_report_metadata(self):
        r = eval_product(F(1, 2), F(1, 2), 10, 20, 128, STRICT, DIRECT)
        assert r.truncation == (10, 20)
        assert r.precision_bits == 128
        assert r.convention is STRICT
        assert r.form is DIRECT
        with mp.workprec(200):
            assert abs(r.product_value - mp.exp(r.log_value)) < mp.ldexp(1, -120)

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            eval_product(F(9, 8), F(1, 2), 10, 10, 128)


@functools.lru_cache(maxsize=None)
def _reference_strict_sum(X, Y, Nj, Nk, prec):
    """Strict direct log-sum, one log per visible point, Kahan-summed in
    (j, k)-lexicographic order: the evaluator the column products replaced."""
    with mp.workprec(prec):
        xm, ym = mpf_q(X), mpf_q(Y)
        one = mp.mpf(1)
        xpow = [one]
        for _ in range(Nj):
            xpow.append(xpow[-1] * xm)
        ypow = [one]
        for _ in range(Nk):
            ypow.append(ypow[-1] * ym)
        total = mp.mpf(0)
        comp = mp.mpf(0)
        for j in range(1, Nj + 1):
            xj = xpow[j]
            if xj == 0:
                break
            for k in range(1, Nk + 1):
                if math.gcd(j, k) == 1:
                    term = mp.log(one - xj * ypow[k]) / k
                    yy = term - comp
                    tt = total + yy
                    comp = (tt - total) - yy
                    total = tt
        return total


def reference_log_value(X, Y, Nj, Nk, precision_bits, convention, form):
    """Per-point reference for eval_product's log_value.

    Runs at precision_bits + 2 * GUARD_BITS: at + GUARD_BITS its own rounding
    of the powers, amplified by 1/(1 - X^j Y^k), reaches 2^-(p+15) at
    X = Y = 2303/2304, above the agreement tolerance below.
    """
    prec = precision_bits + 2 * GUARD_BITS
    total = _reference_strict_sum(X, Y, Nj, Nk, prec)
    with mp.workprec(prec):
        if convention is AXIS:
            total = total + mp.log(1 - mpf_q(Y))
        return total if form is DIRECT else -total


MAGNITUDES = (F(1, 10), F(1, 2), F(14, 15), F(2303, 2304))
SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def assert_agrees_with_reference(X, Y, Nj, Nk, bits):
    tol = mp.ldexp(1, -(bits + 16))
    for conv in (AXIS, STRICT):
        for form in (DIRECT, RECIPROCAL):
            r = eval_product(X, Y, Nj, Nk, bits, conv, form)
            ref = reference_log_value(X, Y, Nj, Nk, bits, conv, form)
            with mp.workprec(bits + 3 * GUARD_BITS):
                assert abs(r.log_value - ref) <= tol, (X, Y, Nj, Nk, bits, conv, form)


class TestColumnProductAgreement:
    @pytest.mark.parametrize("sx,sy", SIGNS)
    @pytest.mark.parametrize("bits,Nj,Nk", [(128, 37, 23), (256, 23, 37)])
    def test_magnitude_grid(self, sx, sy, bits, Nj, Nk):
        for mx in MAGNITUDES:
            for my in MAGNITUDES:
                assert_agrees_with_reference(sx * mx, sy * my, Nj, Nk, bits)

    @pytest.mark.parametrize(
        "X,Y,Nj,Nk",
        [
            (F(1, 2), F(-14, 15), 20, 13),
            (F(-2303, 2304), F(1, 10), 13, 20),
            (F(14, 15), F(2303, 2304), 20, 13),
            (F(-1, 10), F(-1, 2), 13, 20),
        ],
    )
    def test_2048_bits(self, X, Y, Nj, Nk):
        assert_agrees_with_reference(X, Y, Nj, Nk, 2048)

    @pytest.mark.parametrize(
        "X,Y", [(F(0), F(7, 9)), (F(0), F(-1, 2)), (F(1, 2), F(0)), (F(-14, 15), F(0)), (F(0), F(0))]
    )
    def test_zero_parameters(self, X, Y):
        assert_agrees_with_reference(X, Y, 30, 17, 128)

    @settings(max_examples=60, deadline=None)
    @given(
        X=st.fractions(-1, 1, max_denominator=10**4).filter(lambda q: abs(q) < 1),
        Y=st.fractions(-1, 1, max_denominator=10**4).filter(lambda q: abs(q) < 1),
        Nj=st.integers(1, 60),
        Nk=st.integers(1, 60),
        bits=st.sampled_from([64, 128, 256]),
        conv=st.sampled_from([AXIS, STRICT]),
        form=st.sampled_from([DIRECT, RECIPROCAL]),
    )
    def test_within_tail_bound_plus_slack(self, X, Y, Nj, Nk, bits, conv, form):
        r = eval_product(X, Y, Nj, Nk, bits, conv, form)
        assert r.abs_log_diff <= r.tail_bound + mp.ldexp(1, -bits + 16)


class TestTailBound:
    def test_zero_for_x_zero_strict(self):
        assert tail_bound(F(0), F(1, 2), 10, 10, STRICT) == 0

    def test_frozen_magnitude(self):
        b = tail_bound(F(1, 2), F(3, 4), 400, 400, AXIS)
        assert b < mp.mpf("1e-30")
        assert b > 0

    def test_monotone_in_truncation(self):
        prev = None
        for n in (10, 20, 40, 80, 160):
            b = tail_bound(F(1, 2), F(3, 4), n, n, AXIS)
            if prev is not None:
                assert b <= prev
            prev = b

    def test_axis_at_least_strict(self):
        a = tail_bound(F(1, 3), F(1, 2), 30, 30, AXIS)
        s = tail_bound(F(1, 3), F(1, 2), 30, 30, STRICT)
        assert a >= s

    def test_bounds_actual_truncation_error(self):
        # against a much larger truncation standing in for the infinite product
        for X, Y in ((F(1, 3), F(1, 2)), (F(-2, 5), F(1, 2))):
            small = eval_product(X, Y, 30, 30, 256, STRICT, DIRECT)
            big = eval_product(X, Y, 400, 400, 256, STRICT, DIRECT)
            actual = abs(small.log_value - big.log_value)
            assert actual <= small.tail_bound


class TestLogDoubleSeries:
    def test_x_zero(self):
        assert log_double_series(F(0), F(1, 2), 50, 50, 128) == 0

    def test_half_half_equals_log_two(self):
        s = log_double_series(F(1, 2), F(1, 2), 100, 100, 256)
        with mp.workprec(300):
            assert abs(s - mp.log(2)) < mp.mpf("1e-25")

    def test_matches_eval_product(self):
        # series oracle vs the coprime-regrouped product, each within its tail
        X, Y = F(1, 3), F(1, 2)
        s = log_double_series(X, Y, 60, 60, 256)
        r = eval_product(X, Y, 60, 60, 256, STRICT, DIRECT)
        combined = 2 * tail_bound(X, Y, 60, 60, STRICT) + mp.ldexp(1, -240)
        with mp.workprec(300):
            assert abs(s + r.log_value) <= combined

    def test_oracle_equivalence_random(self):
        rng = random.Random(31)
        for _ in range(6):
            X = F(rng.randrange(-9, 10), 20)
            Y = F(rng.randrange(-9, 10), 20)
            if X == 0 or Y == 0:
                continue
            s = log_double_series(X, Y, 60, 60, 256)
            r = eval_product(X, Y, 60, 60, 256, STRICT, RECIPROCAL)
            combined = 2 * tail_bound(X, Y, 60, 60, STRICT) + mp.ldexp(1, -240)
            assert abs(r.log_value - s) <= combined, (X, Y)


class TestExactRegroupCheck:
    def test_x_zero(self):
        assert exact_regroup_check(F(0), F(1, 2), 8, 8)

    def test_unit_disc_cases(self):
        assert exact_regroup_check(F(1, 3), F(1, 2), 12, 12)
        assert exact_regroup_check(F(-1, 2), F(2, 3), 12, 12)

    def test_formal_outside_unit_disc(self):
        assert exact_regroup_check(F(2), F(3), 6, 6)

    def test_asymmetric_boxes_random(self):
        rng = random.Random(13)
        for _ in range(8):
            X = F(rng.randrange(-5, 6), rng.randrange(1, 5))
            Y = F(rng.randrange(-5, 6), rng.randrange(1, 5))
            NJ, NK = rng.randrange(1, 10), rng.randrange(1, 10)
            assert exact_regroup_check(X, Y, NJ, NK), (X, Y, NJ, NK)
