import functools
import math
import random
from fractions import Fraction as F
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp

from xyyx import vpv
from xyyx.errors import DomainViolation
from xyyx.exact import iv_precision
from xyyx.transforms import pair_from_euler
from xyyx.vpv import (
    GUARD_BITS,
    Convention,
    Form,
    _power,
    _power_steps,
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

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError, match="box bounds must be >= 1"):
            count_visible(0)

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
                expected = rs.log_value + sign * mp.log(mpf_q(1 - F(2, 5)))
            assert ra.log_value == expected

    def test_axis_factor_beyond_working_precision(self):
        # 1 - Y = 3^-70 is below half the ulp of 1 at p + GUARD_BITS bits,
        # so forming it from Y rounded first gave log(0)
        Y = 1 - F(1, 3**70)
        r = eval_product(F(0), Y, 5, 5, 64, AXIS, DIRECT)
        cf = closed_form(F(0), Y, AXIS, DIRECT, 64)
        with mp.workprec(200):
            assert abs(r.log_value + 70 * mp.log(3)) < mp.ldexp(1, -80)
            assert abs(cf * 3**70 - 1) < mp.ldexp(1, -80)

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


def assert_agrees_with_reference(X, Y, Nj, Nk, bits, tol=None):
    if tol is None:
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

    @pytest.mark.parametrize(
        "X,Y,Nj,Nk,bits",
        [
            # negative X: odd powers are negative, so >> rounds them toward -inf
            (F(-5, 7), F(3, 4), 31, 29, 128),
            (F(-9, 10), F(-14, 15), 41, 23, 64),
            # powers of X stay near 1 across the box; S is about 2^49
            (1 - F(1, 2**50), F(1, 2), 20, 20, 128),
            (F(1, 2**50) - 1, F(1, 2), 20, 20, 128),
            # the powers' absolute error adds up over rows of about
            # 1/(1-|X|) = 2304 terms, while 1/(1-|XY|) is only about 1.1
            (F(2303, 2304), F(1, 10), 120, 20, 64),
            (F(2303, 2304), F(-1, 10), 120, 20, 64),
            # the dyadic high-precision anchor of the lattice workload
            (F(1, 2), F(3, 4), 68, 68, 2048),
            # column products fall far below 2^-P: only the exponent keeps them
            (F(2303, 2304), F(2303, 2304), 30, 30, 128),
        ],
    )
    def test_fixed_point_hazards(self, X, Y, Nj, Nk, bits):
        assert_agrees_with_reference(X, Y, Nj, Nk, bits)

    @pytest.mark.parametrize("sx,sy", SIGNS)
    def test_logs_follow_the_pruning_rule(self, monkeypatch, sx, sy):
        # one log for the axis term plus one per pair of doubling chains of
        # the columns k whose j = 1 term |X Y^k| is at least 2^-(p+32) (1-|X|),
        # in exact rationals: those columns are k = 1..K, with ceil(K/2)
        # chains in ceil(ceil(K/2)/2) pairs and singles; log b and log d are
        # taken too once a column has an exact prefix
        calls = []
        log = mp.log

        def counting_log(x):
            calls.append(x)
            return log(x)

        monkeypatch.setattr(mp, "log", counting_log)
        for Nj, Nk, bits in ((40, 130, 64), (130, 40, 64), (90, 90, 128), (20, 200, 256)):
            cut = F(1, 2 ** (bits + GUARD_BITS))
            for mx in MAGNITUDES:
                for my in MAGNITUDES:
                    X, Y = sx * mx, sy * my
                    columns = sum(abs(X * Y**k) >= cut * (1 - abs(X)) for k in range(1, Nk + 1))
                    calls.clear()
                    split = column_split(monkeypatch, X, Y, Nj, Nk, bits)
                    denominators = 2 if any(prefix for prefix, _, _ in split) else 0
                    chains = (columns + 1) // 2
                    assert len(calls) == 1 + (chains + 1) // 2 + denominators, (X, Y, Nj, Nk, bits)

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


def derived_budget(X, Y, Nj, Nk, precision_bits):
    """eval_product's a-priori error budget, evaluated for one case:
    u (2 H_Nk + 2 + L + 5S + 3 |log(1-Y)|), u = 2^-(p+32)."""
    with mp.workprec(precision_bits + 3 * GUARD_BITS):
        ax, ay = mpf_q(abs(X)), mpf_q(abs(Y))
        H = mp.fsum(mp.mpf(1) / k for k in range(1, Nk + 1))
        L = -mp.log(1 - ay)
        S = ax / (1 - ax) * L
        total = 2 * H + 2 + L + 5 * S + 3 * abs(mp.log(mpf_q(1 - Y)))
        return mp.ldexp(total, -(precision_bits + GUARD_BITS))


class TestDerivedBudget:
    """The error against the per-point reference stays inside the budget
    that eval_product's docstring derives, case by case."""

    @staticmethod
    def assert_within_budget(X, Y, Nj, Nk, bits):
        budget = derived_budget(X, Y, Nj, Nk, bits)
        assert_agrees_with_reference(X, Y, Nj, Nk, bits, budget)

    @pytest.mark.parametrize("sx,sy", SIGNS)
    @pytest.mark.parametrize("bits,Nj,Nk", [(128, 37, 23), (256, 23, 37)])
    def test_magnitude_grid(self, sx, sy, bits, Nj, Nk):
        for mx in MAGNITUDES:
            for my in MAGNITUDES:
                self.assert_within_budget(sx * mx, sy * my, Nj, Nk, bits)

    @pytest.mark.parametrize(
        "X,Y,Nj,Nk,bits",
        [
            (F(-9, 10), F(-14, 15), 41, 23, 64),
            (F(2303, 2304), F(1, 10), 120, 20, 64),
            (F(1, 2), F(3, 4), 68, 68, 2048),
            (F(14, 15), F(2303, 2304), 37, 23, 128),
        ],
    )
    def test_hazards(self, X, Y, Nj, Nk, bits):
        self.assert_within_budget(X, Y, Nj, Nk, bits)


# X = 1 - (60/61)^60 and Y = 1 - (60/61)^61, about 0.63 with 356-bit
# numerators: too wide for an exact step at 128 bits, and past g = 1 at 2048
LONG_X = 1 - F(60, 61) ** 60
LONG_Y = 1 - F(60, 61) ** 61


class TestPowerStepsAndChains:
    """Steps by X's own fraction or by a mantissa of X^g, and one log per
    pair of doubling chains of columns, against the per-point reference."""

    @pytest.mark.parametrize("X", [F(5, 7), F(-5, 7), F(1, 2), LONG_X, -LONG_X])
    @pytest.mark.parametrize("P", [100, 400])
    def test_step_table(self, X, P):
        n, d = X.numerator, X.denominator
        steps = _power_steps(X, 40, P)
        assert len(steps) == 41
        for g, (m, s, q) in enumerate(steps):
            if g * (n.bit_length() + d.bit_length()) <= P // 2:
                assert (m, s, q) == (n**g, 0, d**g)
            else:
                assert q == 1
                assert abs(F(m, 2**s) - X**g) < (2 * g - 1) * F(1, 2**P) * abs(X) ** g

    @pytest.mark.parametrize("sx,sy", SIGNS)
    @pytest.mark.parametrize("bits,Nj,Nk", [(128, 37, 23), (2048, 20, 13)])
    def test_long_numerators(self, sx, sy, bits, Nj, Nk):
        X, Y = sx * LONG_X, sy * LONG_Y
        assert_agrees_with_reference(X, Y, Nj, Nk, bits, derived_budget(X, Y, Nj, Nk, bits))

    @pytest.mark.parametrize(
        "X,Y,Nk",
        [
            pytest.param(X, Y, Nk, id=f"X{i}-Y{i}-{Nk}")
            for i, (X, Y, edges) in enumerate(
                [
                    (F(14, 15), F(-3, 4), [1, 2, 64, 65]),
                    # the pairs reach (699, 700), whose power is 699
                    (F(-1, 2), F(2303, 2304), [1, 2, 64, 65, 699, 700]),
                ]
            )
            for Nk in edges
        ],
    )
    def test_chain_edges(self, monkeypatch, X, Y, Nk):
        # every column runs, so the chains end at Nk/2 < k <= Nk
        assert_agrees_with_reference(X, Y, 9, Nk, 128, derived_budget(X, Y, 9, Nk, 128))
        calls = []
        log = mp.log
        monkeypatch.setattr(mp, "log", lambda x: calls.append(x) or log(x))
        eval_product(X, Y, 9, Nk, 128, STRICT, DIRECT)
        chains = (Nk + 1) // 2
        assert len(calls) == 1 + (chains + 1) // 2 + 2  # and log b, log d of the prefixes

    def test_chains_of_columns_far_below_one(self):
        # the column products lie between 2^-223 and 2^-39, and the chain
        # from k = 1 to 64 folds to about 2^-20900: only the exponents keep it
        X = Y = F(2303, 2304)
        assert_agrees_with_reference(X, Y, 30, 64, 128, derived_budget(X, Y, 30, 64, 128))

    @pytest.mark.parametrize("P", [64, 300])
    def test_power_within_its_bound(self, P):
        rng = random.Random(P)
        for n in [*range(1, 40), 127, 128, 255, 398]:
            m = rng.getrandbits(P - 1) | 1 << (P - 1)
            e = rng.randint(-3 * P, P)
            pm, pe = _power((m, e), n, P)
            exact = (m * F(2) ** e) ** n
            assert pm.bit_length() == P
            assert (1 - F(2 * (n - 1), 2**P)) * exact <= pm * F(2) ** pe <= exact, n


def column_split(monkeypatch, X, Y, Nj, Nk, bits):
    """The j of each column's exact prefix, multiplied suffix and first-order tail.

    eval_product enumerates each column's coprime j with three compress
    calls, in that order; this records what they yield.
    """
    seen = []

    def recording(data, mask):
        seen.append(list(compress(data, mask)))
        return iter(seen[-1])

    monkeypatch.setattr(vpv, "compress", recording)
    eval_product(X, Y, Nj, Nk, bits, STRICT, DIRECT)
    monkeypatch.setattr(vpv, "compress", compress)
    return list(zip(seen[::3], seen[1::3], seen[2::3]))


class TestFirstOrderTail:
    """Past |X^j Y^k| < tau a column's t are added up and it is multiplied
    once by 1 - sum t; the product stays within the derived budget."""

    @staticmethod
    def tau(X, Nj, Nk, bits):
        """The cut eval_product's docstring derives: 2^-(ceil(p'/2) + bitlen(M') + 2 + floor(bitlen(Nk)/2))."""
        M = min(Nj, math.ceil(1 / (1 - abs(X))))
        return F(1, 2 ** ((bits + GUARD_BITS + 1) // 2 + M.bit_length() + 2 + Nk.bit_length() // 2))

    @pytest.mark.parametrize(
        "X,Y",
        [(F(-1, 9), F(13, 14)), (F(1, 9), F(-13, 14)), (F(14, 15), F(1, 2)), (F(-14, 15), F(-1, 2))],
    )
    def test_agrees_with_brute_force(self, monkeypatch, X, Y):
        N, bits = 115, 128
        split = column_split(monkeypatch, X, Y, N, N, bits)
        assert any((prefix or suffix) and tail for prefix, suffix, tail in split)
        tau = self.tau(X, N, N, bits)
        edge = F(1, 2**40)  # the fixed-point test's error, relative
        for k, (prefix, suffix, tail) in enumerate(split, 1):
            assert all(abs(X**j * Y**k) >= tau * (1 - edge) for j in suffix), k
            assert all(abs(X**j * Y**k) < tau * (1 + edge) for j in tail), k
        prec = bits + 3 * GUARD_BITS
        oracle = brute_force_product(X, Y, N, N, STRICT, DIRECT, prec)
        budget = derived_budget(X, Y, N, N, bits)
        with mp.workprec(prec):
            strict = mp.log(oracle)
            axis = strict + mp.log(mpf_q(1 - Y))
            for conv, form, expected in ((STRICT, DIRECT, strict), (AXIS, RECIPROCAL, -axis)):
                r = eval_product(X, Y, N, N, bits, conv, form)
                assert abs(r.log_value - expected) <= budget, (conv, form)


class TestExactPrefix:
    """Factors enter as exact integer numerators while b^j d^k fits in P
    bits, the rest of the column in fixed point, against the per-point
    reference within the derived budget."""

    @staticmethod
    def assert_within_budget(X, Y, Nj, Nk, bits):
        assert_agrees_with_reference(X, Y, Nj, Nk, bits, derived_budget(X, Y, Nj, Nk, bits))

    @pytest.mark.parametrize("X,Y,N", [(F(1, 2), F(3, 4), 40), (F(-11, 12), F(13, 14), 30)])
    def test_4096_bits(self, monkeypatch, X, Y, N):
        split = column_split(monkeypatch, X, Y, N, N, 4096)
        assert all(prefix and not suffix + tail for prefix, suffix, tail in split)
        self.assert_within_budget(X, Y, N, N, 4096)

    @pytest.mark.parametrize("bits", [128, 256])
    def test_columns_switch_to_fixed_point(self, monkeypatch, bits):
        X, Y = F(14, 15), F(2303, 2304)
        split = column_split(monkeypatch, X, Y, 60, 60, bits)
        assert len(split) == 60
        assert any(prefix and suffix + tail for prefix, suffix, tail in split)
        for k, (prefix, suffix, tail) in enumerate(split, 1):
            column = prefix + suffix + tail
            assert column == sorted(set(column))
            assert all(math.gcd(j, k) == 1 for j in column)
        self.assert_within_budget(X, Y, 60, 60, bits)

    def test_prefix_stops_once_d_to_the_k_is_too_wide(self, monkeypatch):
        # bitlen(d) = 41, so k bitlen(d) passes P = 171 bits at k = 5
        X, Y = F(1, 2), 1 - F(1, 2**40)
        split = column_split(monkeypatch, X, Y, 20, 20, 128)
        assert len(split) == 20
        assert [bool(prefix) for prefix, _, _ in split] == [True] * 4 + [False] * 16
        self.assert_within_budget(X, Y, 20, 20, 128)

    @pytest.mark.parametrize("X,Y", [(F(-5, 7), F(3, 4)), (F(5, 7), F(-3, 4)), (-F(5, 7), -F(3, 4))])
    @pytest.mark.parametrize("bits", [128, 1024])
    def test_negative_numerators(self, monkeypatch, X, Y, bits):
        assert column_split(monkeypatch, X, Y, 30, 30, bits)[0][0]
        self.assert_within_budget(X, Y, 30, 30, bits)

    def test_which_columns_are_exact(self, monkeypatch):
        # every column of the 2048-bit dyadic anchor is all prefix; the
        # 14280-bit denominators of pair_from_euler(1369) get no prefix at all,
        # and neither do LONG_X and LONG_Y at 2048 bits, whose column 1 would
        # stop at j = 4, short of PREFIX_MIN_J
        anchor = column_split(monkeypatch, F(1, 2), F(3, 4), 68, 68, 2048)
        assert len(anchor) == 68
        assert all(prefix and not suffix + tail for prefix, suffix, tail in anchor)
        long = column_split(monkeypatch, LONG_X, LONG_Y, 20, 13, 2048)
        assert len(long) == 13 and not any(prefix for prefix, _, _ in long)
        wide = pair_from_euler(1369)
        split = column_split(monkeypatch, wide.X, wide.Y, 20, 20, 256)
        assert len(split) == 20
        assert all(suffix + tail and not prefix for prefix, suffix, tail in split)

    def test_log_terms_are_rounded_once(self, monkeypatch):
        # the chain terms and -R_b log b - R_d log d cancel from about 1624
        # down to log_value = -1.386: a running sum at p + 32 bits errs by
        # thousands of units in the last place, mp.fsum by half of one
        recorded = []
        fsum = mp.fsum

        def recording_fsum(terms):
            recorded.append(list(terms))
            return fsum(recorded[-1])

        monkeypatch.setattr(mp, "fsum", recording_fsum)
        bits = 128
        r = eval_product(F(1, 2), F(3, 4), 40, 40, bits, STRICT, DIRECT)
        assert len(recorded) == 1, "the log terms are summed by one mp.fsum"
        terms = recorded[0]
        exact = sum((-1 if t < 0 else 1) * F(t.man) * F(2) ** t.exp for t in terms)
        with mp.workprec(bits + GUARD_BITS):
            assert max(abs(t) for t in terms) > 2**10 * abs(r.log_value)
            assert r.log_value == mp.fdiv(exact.numerator, exact.denominator)
            assert r.log_value != sum(terms, mp.mpf(0))


class TestTailBound:
    def test_zero_for_x_zero_strict(self):
        assert tail_bound(F(0), F(1, 2), 10, 10, STRICT) == 0

    def test_frozen_magnitude(self):
        b = tail_bound(F(1, 2), F(3, 4), 400, 400, AXIS)
        assert b < mp.mpf("1e-30")
        assert b > 0

    def test_rejects_bad_box(self):
        for Nj, Nk in ((0, 5), (5, 0), (-1, -1)):
            with pytest.raises(ValueError, match="box bounds"):
                tail_bound(F(1, 2), F(1, 2), Nj, Nk)

    def test_monotone_in_truncation(self):
        prev = None
        for n in (10, 20, 40, 80, 160):
            b = tail_bound(F(1, 2), F(3, 4), n, n, AXIS)
            if prev is not None:
                assert b <= prev
            prev = b

    def test_y_within_2_pow_minus_128_of_one(self):
        # 1 - Y = 3^-100 rounds to 0 from a 128-bit enclosure of Y; the bound
        # is the K > 5 axis column Y^6 / (6 (1 - Y)), about 3^100 / 6
        Y = F(3**100 - 1, 3**100)
        b = tail_bound(F(0), Y, 5, 5, AXIS)
        assert mp.isfinite(b)
        assert abs(b / (mp.mpf(3**100) / 6) - 1) < 1e-9

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


def reference_tail_bound(X, Y, Nj, Nk, convention):
    """tail_bound as written before its per-parameter terms were split out."""
    ax, ay = abs(X), abs(Y)
    with iv_precision(128):
        xm, ym, rx, ry = (iv.mpf(q.numerator) / iv.mpf(q.denominator) for q in (ax, ay, 1 - ax, 1 - ay))
        col = ym ** (Nk + 1) / ((Nk + 1) * ry)
        bound = xm ** (Nj + 1) / rx * -iv.log(ry)
        bound += xm / rx * col
        if convention is Convention.AXIS:
            bound += col
        with mp.workprec(160):
            return mp.mpf(bound.b)


NEAR_ONE = 1 - F(1, 2**50)
TAIL_PARAMETERS = st.one_of(
    st.sampled_from([F(0), NEAR_ONE, -NEAR_ONE, F(2303, 2304), F(-2303, 2304), F(1, 2), F(-3, 4)]),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**6).filter(lambda q: abs(q) < 1),
)


class TestTailBoundTerms:
    @settings(max_examples=300, deadline=None)
    @given(TAIL_PARAMETERS, TAIL_PARAMETERS, st.integers(1, 3000), st.integers(1, 3000), st.sampled_from(list(Convention)))
    def test_same_bits_as_the_one_formula(self, X, Y, Nj, Nk, convention):
        got, want = tail_bound(X, Y, Nj, Nk, convention), reference_tail_bound(X, Y, Nj, Nk, convention)
        assert got._mpf_ == want._mpf_

    def test_unequal_boxes_near_one(self):
        for X, Y in ((NEAR_ONE, F(2303, 2304)), (F(0), -NEAR_ONE), (F(-2303, 2304), F(0))):
            for Nj, Nk in ((1, 2000), (55, 12), (1000, 3)):
                for convention in Convention:
                    got = tail_bound(X, Y, Nj, Nk, convention)
                    assert got._mpf_ == reference_tail_bound(X, Y, Nj, Nk, convention)._mpf_


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

    @settings(max_examples=80, deadline=None)
    @given(
        X=st.fractions(-5, 5, max_denominator=20),
        Y=st.fractions(-5, 5, max_denominator=20),
        NJ=st.integers(1, 8),
        NK=st.integers(1, 8),
    )
    def test_random_rationals(self, X, Y, NJ, NK):
        assert exact_regroup_check(X, Y, NJ, NK)

    def test_asymmetric_boxes_random(self):
        rng = random.Random(13)
        for _ in range(8):
            X = F(rng.randrange(-5, 6), rng.randrange(1, 5))
            Y = F(rng.randrange(-5, 6), rng.randrange(1, 5))
            NJ, NK = rng.randrange(1, 10), rng.randrange(1, 10)
            assert exact_regroup_check(X, Y, NJ, NK), (X, Y, NJ, NK)
