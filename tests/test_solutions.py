import contextlib
import json
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from xyyx import cli, exact, solutions, transforms
from xyyx.errors import (
    DegenerateParameters,
    NonPositiveParameter,
    NonRationalTuple,
    OversizedValue,
    PointBudgetExceeded,
)
from xyyx.exact import ONE, PrimePowerProduct
from xyyx.solutions import (
    SolutionTuple,
    classify_triviality,
    euler_solution,
    general_solution,
    manual_tuple,
    numeric_verify,
    rational_family,
    search_integer_solutions,
    verify_fractions,
    verify_power_equation,
    verify_product_equation,
)

# All thirteen (b, c; x, y, v, w) rows of the rational-family table
FAMILY_TABLE = {
    (1, 1): (F(1, 2), F(1), F(1, 2), F(1, 2)),
    (2, 1): (F(2, 3), F(2), F(4, 3), F(2, 3)),
    (3, 1): (F(3, 4), F(3), F(9, 4), F(3, 4)),
    (4, 1): (F(4, 5), F(4), F(16, 5), F(4, 5)),
    (1, 2): (F(2, 3), F(2), F(2, 3), F(4, 3)),
    (2, 2): (F(4), F(16), F(8), F(8)),
    (3, 2): (F(72, 5), F(72), F(216, 5), F(144, 5)),
    (6, 2): (F(288), F(2304), F(1728), F(576)),
    (1, 3): (F(3, 4), F(3), F(3, 4), F(9, 4)),
    (3, 3): (F(3**5, 2), F(3**6), F(3**6, 2), F(3**6, 2)),
    (6, 3): (F(17496), F(157464), F(104976), F(52488)),
    (2, 4): (F(2**7, 3), F(2**8), F(2**8, 3), F(2**9, 3)),
    (5, 3): (F(30375, 8), F(30375), F(151875, 8), F(91125, 8)),
}


class TestEulerSolution:
    def test_first_three(self):
        assert euler_solution(1) == (F(2), F(4))
        assert euler_solution(2) == (F(9, 4), F(27, 8))
        assert euler_solution(3) == (F(64, 27), F(256, 81))

    def test_all_verify_up_to_50(self):
        for n in range(1, 51):
            x, y = euler_solution(n)
            assert verify_power_equation(x, y), n

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveParameter):
            euler_solution(0)

    def test_refuses_an_index_too_large_to_print(self):
        # 1370^1370 has 4298 digits and 1371^1371 has 4301; 10^400 would overflow a float
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert len(str(euler_solution(1369)[1].numerator)) == 4298
            for n in (1370, 10**400):
                with pytest.raises(OversizedValue, match="more than 4300 decimal digits"):
                    euler_solution(n)
        finally:
            sys.set_int_max_str_digits(old)


class TestVerifyPowerEquation:
    def test_two_four(self):
        assert verify_power_equation(F(2), F(4)) is True

    def test_equal_arguments_always_true(self):
        rng = random.Random(5)
        for _ in range(30):
            q = F(rng.randrange(1, 500), rng.randrange(1, 500))
            assert verify_power_equation(q, q)

    def test_two_three_false(self):
        assert verify_power_equation(F(2), F(3)) is False

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveParameter):
            verify_power_equation(F(-2), F(4))


class TestGeneralSolution:
    def test_3_2_1(self):
        t = general_solution(F(3), F(2), F(1))
        assert t.as_fractions() == (F(2, 3), F(2), F(4, 3), F(2, 3))

    def test_4_2_2(self):
        t = general_solution(F(4), F(2), F(2))
        assert t.as_fractions() == (F(4), F(16), F(8), F(8))

    def test_1_2_2_negative_exponent(self):
        t = general_solution(F(1), F(2), F(2))
        assert t.as_fractions() == (F(1, 4), F(1, 4), F(1, 2), F(1, 2))
        assert verify_product_equation(t)

    def test_irrational_instance(self):
        # (5, 2, 1): x = (2/5)^(1/3), kept as exact rational-exponent factors
        t = general_solution(F(5), F(2), F(1))
        assert t.x == PrimePowerProduct(((2, F(1, 3)), (5, F(-1, 3))))
        assert not t.is_rational
        with pytest.raises(NonRationalTuple):
            t.as_fractions()
        assert str(t) == "(2^(1/3) * 5^(-1/3), 2^(1/3) * 5^(2/3), 2^(4/3) * 5^(-1/3), 2^(1/3) * 5^(-1/3))"

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParameters):
            general_solution(F(0), F(1), F(1))
        # a+1 = b+c makes the exponent 1/0; (2, 1, 2) sits exactly on it
        with pytest.raises(DegenerateParameters):
            general_solution(F(2), F(1), F(2))

    def test_nonpositive_parameters(self):
        with pytest.raises(NonPositiveParameter):
            general_solution(F(3), F(-2), F(1))
        with pytest.raises(NonPositiveParameter):
            general_solution(F(-3), F(2), F(1))


class TestRationalFamily:
    def test_full_table(self):
        for (b, c), expected in FAMILY_TABLE.items():
            t = rational_family(b, c)
            assert t.as_fractions() == expected, (b, c)
            assert verify_product_equation(t), (b, c)

    def test_structure_relations_up_to_8(self):
        for b in range(1, 9):
            for c in range(1, 9):
                t = rational_family(b, c)
                xq, yq, vq, wq = t.as_fractions()
                assert yq == (b + c) * xq
                assert vq == b * xq
                assert wq == c * xq
                assert verify_product_equation(t)

    def test_consistent_with_general_solution(self):
        for b in range(1, 9):
            for c in range(1, 9):
                t = general_solution(F(b + c), F(b), F(c))
                assert t.values() == rational_family(b, c).values()
                assert all(type(e) is int for u in t.values() for _, e in u.factors), (b, c)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveParameter):
            rational_family(0, 2)


class TestVerifyProductEquation:
    def test_displayed_equalities(self):
        assert verify_fractions(F(1, 3), F(1, 6), F(1, 2), F(4, 3)) is True
        assert verify_fractions(F(1, 2), F(1, 3), F(1, 2), F(4, 3)) is True
        assert verify_fractions(F(1, 2), F(1, 3), F(1, 3), F(1, 6)) is True

    def test_possibly_trivial_equalities(self):
        assert verify_fractions(F(4), F(3, 2), F(1), F(81, 2)) is True
        assert verify_fractions(F(1, 2), F(1, 2), F(1, 2), F(1)) is True

    def test_counterexample(self):
        assert verify_fractions(F(2), F(3), F(2), F(4)) is False

    def test_rejects_nonpositive(self):
        # one check, exact.check_positive, for every exact input
        for vals in ((F(-1, 2), F(2), F(3), F(4)), (F(2), F(3), F(4), F(0))):
            with pytest.raises(NonPositiveParameter, match="value must be positive, got"):
                verify_fractions(*vals)
        with pytest.raises(NonPositiveParameter, match="value must be positive, got -1/2"):
            verify_power_equation(F(4), F(-1, 2))

    def test_symmetry_invariances(self):
        rng = random.Random(17)
        for _ in range(40):
            vals = [F(rng.randrange(1, 60), rng.randrange(1, 60)) for _ in range(4)]
            x, y, v, w = vals
            base = verify_fractions(x, y, v, w)
            assert verify_fractions(y, x, v, w) == base
            assert verify_fractions(v, w, x, y) == base

    def test_irrational_tuple_rejected(self):
        t = general_solution(F(5), F(2), F(1))
        with pytest.raises(NonRationalTuple):
            verify_product_equation(t)


class TestNumericVerify:
    def test_consistent_with_exact_on_rational_tuples(self):
        for b, c in ((1, 1), (2, 2), (6, 2), (5, 3)):
            t = rational_family(b, c)
            ok, residual = numeric_verify(t, 128)
            assert ok
            assert 0 in residual

    def test_irrational_instances_verify(self):
        for a, b, c in ((5, 2, 1), (3, 1, 1), (7, 3, 2)):
            t = general_solution(F(a), F(b), F(c))
            ok, _ = numeric_verify(t, 192)
            assert ok, (a, b, c)

    @settings(max_examples=80, deadline=None)
    @given(
        *[st.fractions(min_value=F(1, 3), max_value=8, max_denominator=3)] * 3,
        st.sampled_from([128, 192, 256]),
    )
    def test_general_solution_verifies(self, a, b, c, bits):
        # |a - b - c + 1| >= 1/2 keeps x = (b^c c^b / a)^(1/(a-b-c+1)) moderate,
        # so the residual's width stays below 2^(-bits/2)
        if abs(a - b - c + 1) < F(1, 2):
            return
        assert numeric_verify(general_solution(a, b, c), bits).ok

    @pytest.mark.parametrize(
        "a, b, c", [(F(26, 3), 4, 5), (F(23, 3), 3, 5), (F(23, 3), 4, 4), (F(23, 3), 5, 3)]
    )
    def test_large_solutions_verify_at_64_bits(self, a, b, c):
        # x^y is about e^(3.3e9) for (26/3, 4, 5): the residual's width grows
        # with the logs that cancel, so an absolute cut rejected it
        ok, residual = numeric_verify(general_solution(a, b, c), 64)
        assert ok
        assert 0 in residual

    @pytest.mark.parametrize("bits", [64, 128])
    def test_near_degenerate_family_verifies(self, bits):
        # a - b - c + 1 = 1/100, so x = (2^3 3^2 / a)^100 is huge
        assert numeric_verify(general_solution(F(401, 100), F(2), F(3)), bits).ok

    @pytest.mark.parametrize("bits", [64, 256])
    def test_counterexample_stays_unverified(self, bits):
        assert not numeric_verify(manual_tuple(F(2), F(3), F(2), F(4)), bits).ok

    def test_tiny_perturbation_of_a_solution_rejected(self):
        x, y, v, w = FAMILY_TABLE[(6, 2)]
        assert numeric_verify(manual_tuple(x, y, v, w), 256).ok
        assert not numeric_verify(manual_tuple(x, y, v, w * (1 + F(1, 10**30))), 256).ok

    def test_counterexample_residual_excludes_zero(self):
        t = manual_tuple(F(2), F(3), F(2), F(4))
        ok, residual = numeric_verify(t, 128)
        assert not ok
        assert 0 not in residual
        with mp.workprec(150):
            assert abs(mp.mpf(residual.mid)) > mp.mpf("1.2")


class TestClassifyTriviality:
    def test_nontrivial_example(self):
        v = classify_triviality(manual_tuple(F(1, 3), F(1, 6), F(1, 2), F(4, 3)))
        assert (v.trivial, v.reason) == (False, "none")

    def test_contains_one(self):
        # x = a^b b^a, y = 1, v = a, w = b with (a, b) = (2, 3)
        v = classify_triviality(manual_tuple(F(72), F(1), F(2), F(3)))
        assert (v.trivial, v.reason) == (True, "contains-one")

    def test_multiset_equal(self):
        v = classify_triviality(manual_tuple(F(2), F(4), F(4), F(2)))
        assert (v.trivial, v.reason) == (True, "multiset-equal")

    def test_multiset_rule_takes_precedence(self):
        v = classify_triviality(manual_tuple(F(1), F(2), F(2), F(1)))
        assert v.reason == "multiset-equal"

    def test_borderline_cases_classify_trivial(self):
        v1 = classify_triviality(manual_tuple(F(1, 2), F(1, 2), F(1, 2), F(1)))
        assert (v1.trivial, v1.reason) == (True, "contains-one")
        v2 = classify_triviality(manual_tuple(F(4), F(3, 2), F(1), F(81, 2)))
        assert (v2.trivial, v2.reason) == (True, "contains-one")

    def test_reason_none_iff_nontrivial(self):
        rng = random.Random(23)
        for _ in range(50):
            vals = [F(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(4)]
            v = classify_triviality(manual_tuple(*vals))
            assert (v.reason == "none") == (not v.trivial)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([F(1), F(2), F(1, 2), F(4), F(3, 7)]), min_size=4, max_size=4),
        st.permutations(range(4)),
    )
    def test_fractions_and_tuples_get_one_verdict(self, vals, order):
        # small draws give 1s and repeats; the verify command reads the Fractions
        x, y, v, w = vals = tuple(vals[i] for i in order)
        verdict = classify_triviality(manual_tuple(*vals))
        assert solutions._triviality(vals, 1) == verdict
        assert solutions._triviality((y, x, w, v), 1) == verdict
        assert solutions._triviality((v, w, x, y), 1) == verdict


class TestSearchIntegerSolutions:
    def test_bounds_2_2(self):
        found = search_integer_solutions(2, 2)
        assert [t.params for t in found] == [(F(2), F(2))]
        assert found[0].as_fractions() == (F(4), F(16), F(8), F(8))

    def test_bounds_1_1_empty(self):
        assert search_integer_solutions(1, 1) == []

    def test_bounds_6_3(self):
        found = search_integer_solutions(6, 3)
        assert [(int(b), int(c)) for b, c in (t.params for t in found)] == [(2, 2), (6, 2), (6, 3)]

    def test_all_results_integral_and_verified(self):
        for t in search_integer_solutions(8, 8):
            for u in t.values():
                assert u.to_fraction().denominator == 1
            assert verify_product_equation(t)

    def test_one_not_counted_as_solution_value(self):
        # (1, 1) gives x = 1/2: fractional, so excluded
        assert all(int(b) != 1 for b, _ in (t.params for t in search_integer_solutions(1, 8)))


def literal_scan(b_max: int, c_max: int) -> list[tuple[F, F]]:
    """The (b, c) of the integral family tuples, by building b^c c^b."""
    return [
        (F(b), F(c))
        for b in range(1, b_max + 1)
        for c in range(1, c_max + 1)
        if (b**c * c**b) % (b + c) == 0
    ]


class TestSearchScanByGcd:
    def test_walk_matches_the_literal_divisibility_to_150(self):
        assert solutions._integral_pairs(150, 150, 0) == literal_scan(150, 150)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 4000 // n))))
    def test_skewed_boxes_match_the_literal_scan_in_order(self, box):
        # each box and its transpose: the walk runs over whichever bound is smaller
        for b_max, c_max in (box, box[::-1]):
            assert solutions._integral_pairs(b_max, c_max, 0) == literal_scan(b_max, c_max), (b_max, c_max)

    def test_search_60_60_matches_the_literal_scan(self):
        params = [t.params for t in search_integer_solutions(60, 60)]
        assert len(params) == 176
        assert params == literal_scan(60, 60)


@contextlib.contextmanager
def digit_limit(digits: int):
    """Run the block at the interpreter's int-to-str digit limit digits."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def first_oversized_row(b_max: int, c_max: int, digits: int) -> tuple[int, str] | None:
    """The row and field that search_integer_solutions(b_max, c_max, digits) refuses, else None.

    A search it does not refuse must return the rows of the unchecked search.
    """
    try:
        found = search_integer_solutions(b_max, c_max, digits)
    except OversizedValue as exc:
        match = re.fullmatch(rf"solutions\[(\d+)\]\.([xy]) has more than {digits} decimal digits", str(exc))
        assert match, str(exc)
        return int(match[1]), match[2]
    assert found == search_integer_solutions(b_max, c_max)
    return None


class TestFirstOversizedRow:
    @pytest.mark.parametrize("b_max,c_max", [(30, 30), (40, 12), (12, 40)])
    def test_matches_the_built_rows(self, b_max, c_max):
        # each row's x, y, v, w as strings, the way the CLI record prints them
        widths = [
            [(len(str(u.to_fraction())), name) for name, u in zip("xyvw", t.values())]
            for t in search_integer_solutions(b_max, c_max)
        ]
        for digits in range(1, 100):
            over = [(row, name) for row, fields in enumerate(widths) for width, name in fields if width > digits]
            assert first_oversized_row(b_max, c_max, digits) == (over[0] if over else None), digits
        names = {first_oversized_row(b_max, c_max, digits)[1] for digits in range(1, 40)}
        assert names == {"x", "y"}
        assert first_oversized_row(b_max, c_max, 89) is None

    def test_boxes_within_the_limit(self):
        assert first_oversized_row(60, 60, 4300) is None
        assert first_oversized_row(1000, 300, 4300) is None

    def test_bounds_below_one_are_refused_before_the_scan(self):
        with pytest.raises(NonPositiveParameter):
            search_integer_solutions(0, 5, 1)

    def test_a_thin_box_asks_the_sieve_for_its_short_side(self, monkeypatch, capsys):
        # the walk runs over the smaller bound, whatever the larger one, in either orientation
        asked, walked, built = [], [], []
        sieve, smooth, row_values = solutions._prime_divisors, solutions._smooth, solutions._row_values
        monkeypatch.setattr(solutions, "_prime_divisors", lambda n: asked.append(n) or sieve(n))
        monkeypatch.setattr(solutions, "_smooth", lambda primes, top: walked.append(top) or smooth(primes, top))
        monkeypatch.setattr(solutions, "_row_values", lambda b, c: built.append((b, c)) or row_values(b, c))
        for argv in (["search", "20000", "1"], ["search", "1", "20000"]):
            with digit_limit(4300):
                assert cli.main([*argv, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["results"]["solutions"] == []
        assert asked == [1, 1] and walked == [] and built == []
        for argv in (["search", "2000", "3"], ["search", "3", "2000"]):
            with digit_limit(4300):
                assert cli.main([*argv, "--json"]) == 0
            capsys.readouterr()
        assert asked == [1, 1, 3, 3] and walked == [2002, 2003] * 2

    def test_a_refused_box_builds_no_tuple(self, monkeypatch, capsys):
        built = []
        family = solutions._family
        monkeypatch.setattr(solutions, "_family", lambda *args: built.append(args) or family(*args))
        with digit_limit(4300):
            code = cli.main(["search", "1000", "1000", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["message"] == "results.solutions[5005].x has more than 4300 decimal digits"
        assert built == []


class TestCanonicalExponents:
    def test_search_exponents_are_ints(self):
        for t in search_integer_solutions(30, 30):
            for u in t.values():
                assert all(type(e) is int for _, e in u.factors), (t.params, u)

    def test_rational_family_exponents_are_ints(self):
        for b in range(1, 9):
            for c in range(1, 9):
                for u in rational_family(b, c).values():
                    assert all(type(e) is int for _, e in u.factors), (b, c, u)


# The algebra rational_family used before its one-pass builder, and with
# which cli.cmd_digits builds its common value: powers and products of whole
# prime-power products.
def reference_family(b: int, c: int) -> SolutionTuple:
    vb, vc = PrimePowerProduct.from_int(b), PrimePowerProduct.from_int(c)
    y = vb**c * vc**b
    x = y * PrimePowerProduct.from_int(b + c) ** -1
    return SolutionTuple(x, y, vb * x, vc * x, params=(F(b), F(c)))


def reference_identity(t: SolutionTuple) -> tuple[PrimePowerProduct, PrimePowerProduct]:
    """The sides x^y y^x and v^w w^v of a rational-valued tuple."""
    xq, yq, vq, wq = (u.to_fraction() for u in t.values())
    return (t.x**yq) * (t.y**xq), (t.v**wq) * (t.w**vq)


def pair_sides(x: F, y: F) -> tuple[PrimePowerProduct, PrimePowerProduct]:
    """The sides x^y and y^x of a pair of positive rationals."""
    return PrimePowerProduct.from_fraction(x) ** y, PrimePowerProduct.from_fraction(y) ** x


def canonical(u: PrimePowerProduct) -> bool:
    """Every integral exponent an int, every other one a Fraction."""
    return all(type(e) is int or (type(e) is F and e.denominator != 1) for _, e in u.factors)


def exact_mix_verify_tuples() -> list[tuple[F, F, F, F]]:
    """Tuples of the shapes the benchmark's verify requests send, true and false."""
    tuples = [(F(1, 3), F(1, 6), F(1, 2), F(4, 3)), (F(2), F(3), F(2), F(4))]
    for b, c in ((1, 1), (2, 1), (3, 5), (6, 2), (8, 7)):
        x, y, v, w = rational_family(b, c).as_fractions()
        tuples += [(x, y, v, w), (y, x, w, v), (v, w, x, y), (w, v, y, x + 1), (x, y, v, w + F(2, 3))]
    x, y = F(1000003 * 1000033, 7), F(5, 3)
    tuples += [(x, y, y, x), (x, y, y, F(1000003 * 1000037, 7))]
    return tuples


class TestOnePassBuilders:
    def test_rational_family_matches_the_reference_to_30(self):
        for b in range(1, 31):
            for c in range(1, 31):
                t = rational_family(b, c)
                assert t == reference_family(b, c), (b, c)
                assert all(type(e) is int for u in t.values() for _, e in u.factors), (b, c)

    def test_quad_identity_matches_the_reference(self):
        tuples = [rational_family(b, c) for b in range(1, 31) for c in range(1, 31)]
        tuples += [manual_tuple(*vals) for vals in exact_mix_verify_tuples()]
        for a in range(1, 7):
            for b in range(1, 5):
                for c in range(1, 5):
                    if a + 1 != b + c:
                        t = general_solution(F(a), F(b), F(c))
                        if t.is_rational:
                            tuples.append(t)
        assert len(tuples) > 950
        for t in tuples:
            left, right = reference_identity(t)
            assert verify_product_equation(t) is verify_fractions(*t.as_fractions()) is (left == right), t
            assert canonical(left) and canonical(right), t

    def test_false_tuples_stay_false(self):
        assert not verify_fractions(F(2), F(3), F(2), F(4))
        assert not verify_product_equation(manual_tuple(F(2), F(3), F(2), F(4)))
        x, y, v, w = rational_family(6, 2).as_fractions()
        assert verify_fractions(x, y, v, w)
        for bumped in ((x + 1, y, v, w), (x, y + 1, v, w), (x, y, v + 1, w), (x, y, v, w + 1)):
            assert not verify_product_equation(manual_tuple(*bumped)), bumped
            left, right = reference_identity(manual_tuple(*bumped))
            assert left != right, bumped


class TestOnePassCounts:
    @staticmethod
    def counted_factorize(monkeypatch) -> Counter:
        calls: Counter = Counter()
        factorize = solutions.factorize

        def counted(n):
            calls[n] += 1
            return factorize(n)

        monkeypatch.setattr(solutions, "factorize", counted)
        return calls

    def test_search_factors_each_integer_at_most_once(self, monkeypatch):
        calls = self.counted_factorize(monkeypatch)
        found = search_integer_solutions(60, 60)
        needed = {int(n) for t in found for n in (*t.params, sum(t.params))}
        assert set(calls) == needed
        assert max(calls.values()) == 1
        assert [t.params for t in found] == literal_scan(60, 60)

    def test_a_box_with_no_integral_row_factors_nothing(self, monkeypatch):
        calls = self.counted_factorize(monkeypatch)
        assert search_integer_solutions(20000, 1) == []
        assert not calls

    def test_as_fractions_multiplies_each_member_out_once(self, monkeypatch):
        calls = []
        to_fraction = PrimePowerProduct.to_fraction

        def counted(u):
            calls.append(u)
            return to_fraction(u)

        monkeypatch.setattr(PrimePowerProduct, "to_fraction", counted)
        family, manual = rational_family(6, 2), manual_tuple(F(1, 3), F(1, 6), F(1, 2), F(4, 3))
        # manual_tuple keeps the values it was given, so nothing is multiplied out
        for t, multiplied in ((family, list(family.values())), (manual, [])):
            calls.clear()
            first = t.as_fractions()
            assert verify_product_equation(t) and verify_fractions(*t.as_fractions())
            assert t.as_fractions() is first
            assert calls == multiplied

    def test_cached_fractions_leave_equality_and_hash_alone(self):
        t, u = rational_family(6, 2), rational_family(6, 2)
        t.as_fractions()
        assert t == u and hash(t) == hash(u) and repr(t) == repr(u)

    def test_irrational_tuple_raises_on_every_call(self):
        t = general_solution(F(5), F(2), F(1))
        for _ in range(3):
            with pytest.raises(NonRationalTuple):
                t.as_fractions()
            with pytest.raises(NonRationalTuple):
                verify_product_equation(t)


class TestRowsFromTheirConstruction:
    """Euler and search rows come from the integers they are built of, each factored once."""

    @staticmethod
    def counted(monkeypatch, owners, name: str) -> Counter:
        """Calls of owner.name, for every owner, counted by their first argument."""
        calls: Counter = Counter()
        for owner in owners:
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda u, f=original: calls.update([u]) or f(u))
        return calls

    def test_euler_factors_each_integer_once(self, monkeypatch, capsys):
        # every module's name for factorize, so from_fraction's calls count too
        calls = self.counted(monkeypatch, (cli, solutions, exact), "factorize")
        assert cli.main(["euler", "50", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["solutions"]
        assert len(rows) == 50 and all(row["verified"] for row in rows)
        assert calls == Counter(range(1, 52))

    def test_no_member_is_multiplied_back_out(self, monkeypatch, capsys):
        calls = self.counted(monkeypatch, (PrimePowerProduct,), "to_fraction")
        assert ONE.to_fraction() == 1 and sum(calls.values()) == 1  # the counter is in place
        calls.clear()
        assert cli.main(["euler", "60", "--json"]) == 0
        found = search_integer_solutions(60, 60)
        assert all(verify_product_equation(t) for t in found) and len(found) == 176
        assert cli.main(["search", "60", "60", "--json"]) == 0
        capsys.readouterr()
        assert not calls

    def test_euler_verdict_is_verify_power_equation(self):
        for n in range(1, 201):
            x, y = euler_solution(n)
            assert solutions._euler_verdict(n, x, y, solutions.factorize) is verify_power_equation(x, y) is True, n
            # the printed values are the multipliers, so a wrong y is caught
            assert not solutions._euler_verdict(n, x, y + 1, solutions.factorize), n
            assert not solutions._euler_verdict(n, x, x, solutions.factorize), n

    def test_search_rows_are_the_tuples_rows(self):
        rows = solutions._search_rows(60, 60, 4300)
        tuples = search_integer_solutions(60, 60)
        assert len(rows) == 176
        assert rows == [(int(b), int(c), t.as_fractions(), verify_product_equation(t)) for t, (b, c) in
                        ((t, t.params) for t in tuples)]
        assert all(verified for *_, verified in rows)

    def test_search_row_verdict_catches_a_wrong_value(self):
        # the printed values are the multipliers, so one wrong value gives False
        for b, c in solutions._integral_pairs(60, 60, 0):
            values = solutions._row_values(b, c)
            assert solutions._row_verdict(b, c, values, solutions.factorize), (b, c)
            for i in range(4):
                for delta in (1, -1, values[i]):
                    wrong = list(values)
                    wrong[i] += delta
                    assert not solutions._row_verdict(b, c, tuple(wrong), solutions.factorize), (b, c, i, delta)

    def test_search_and_verify_build_no_map_and_factor_nothing(self, monkeypatch, capsys):
        maps = []
        from_map = PrimePowerProduct._from_map
        counted = classmethod(lambda cls, exps: maps.append(exps) or from_map(exps))
        monkeypatch.setattr(PrimePowerProduct, "_from_map", counted)
        factored = self.counted(monkeypatch, (cli, solutions, exact), "factorize")
        assert PrimePowerProduct.from_fraction(F(2, 3)) and len(maps) == 1 and factored  # the counters are in place
        maps.clear()
        factored.clear()
        assert cli.main(["search", "60", "60", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["results"]["solutions"]) == 176
        assert maps == []
        assert set(factored) == {n for b, c in solutions._integral_pairs(60, 60, 0) for n in (b, c, b + c)}
        factored.clear()
        x, y = (str(q) for q in euler_solution(200))
        m = str(2**607 - 1)
        for argv in (["1/3", "1/6", "1/2", "4/3"], ["2", "3", "2", "4"], [x, y, y, x], [m, "2", "2", "9"]):
            assert cli.main(["verify", "--json", *argv]) == 0
            capsys.readouterr()
        assert not factored and maps == []

    def test_search_rows_carry_their_members_values(self):
        found = search_integer_solutions(200, 200)
        assert len(found) == 918
        for t in found:
            assert t.as_fractions() == tuple(u.to_fraction() for u in t.values()), t.params
            assert all(type(q) is F and q.denominator == 1 for q in t.as_fractions()), t.params


# The algebra general_solution used before it went through the family
# builder: powers and products of whole prime-power products.
def reference_general(a: F, b: F, c: F) -> SolutionTuple:
    va, vb, vc = (PrimePowerProduct.from_fraction(q) for q in (a, b, c))
    x = (vb**c * vc**b * va**-1) ** (1 / (a - b - c + 1))
    return SolutionTuple(x, va * x, vb * x, vc * x, params=(a, b, c))


# The benchmark's family --a parameters, and the quads of its transform slots
FAMILY_A_GRID = [
    (a, F(b), F(c))
    for a in (F(1, 3), F(1, 2), F(2, 3), F(1), F(4, 3), F(3, 2), F(2), F(5, 2), F(3))
    for b in range(1, 5)
    for c in range(1, 5)
    if a + 1 != b + c
]
QUADS = [(5, 3, 2), (6, 4, 2), (6, 3, 3), (7, 4, 3), (7, 5, 2), (8, 6, 2), (9, 6, 3), (4, 2, 2), (3, 2, 1)]


class TestOneBuilder:
    @staticmethod
    def check(a, b, c):
        t = general_solution(a, b, c)
        assert t == reference_general(a, b, c), (a, b, c)
        assert all(canonical(u) for u in t.values()), (a, b, c)
        return t

    def test_family_a_grid_matches_the_reference(self):
        rational = [self.check(*abc).is_rational for abc in FAMILY_A_GRID]
        assert len(rational) == 138 and 0 < sum(rational) < len(rational)

    def test_quads_match_the_reference(self):
        for a, b, c in QUADS:
            assert self.check(F(a), F(b), F(c)).is_rational, (a, b, c)

    @settings(max_examples=150, deadline=None)
    @given(*[st.fractions(min_value=F(1, 6), max_value=9, max_denominator=6)] * 3)
    def test_small_rationals_match_the_reference(self, a, b, c):
        if a + 1 != b + c:
            self.check(a, b, c)

    def test_no_product_algebra(self, monkeypatch):
        calls = Counter()
        for name in ("__mul__", "__pow__"):
            original = getattr(PrimePowerProduct, name)

            def counted(u, other, name=name, original=original):
                calls[name] += 1
                return original(u, other)

            monkeypatch.setattr(PrimePowerProduct, name, counted)
        assert ONE * ONE == ONE and calls["__mul__"] == 1  # the counter is in place
        calls.clear()
        for a, b, c in FAMILY_A_GRID + [tuple(map(F, q)) for q in QUADS]:
            general_solution(a, b, c)
        rational_family(6, 2)
        search_integer_solutions(30, 30)
        assert not calls


class TestSearchBox:
    def test_limit_is_the_point_budget(self):
        assert solutions.SEARCH_BUDGET == transforms.POINT_BUDGET == 10**7

    def test_boxes_within_the_limit_pass(self):
        for b_max, c_max in ((10**7, 1), (1, 10**7), (3162, 3162), (1, 1)):
            solutions.check_search_box(b_max, c_max)

    @pytest.mark.parametrize("b_max,c_max", [(10**7 + 1, 1), (1, 10**8), (3163, 3163)])
    def test_larger_boxes_are_refused_before_the_scan(self, b_max, c_max):
        with pytest.raises(PointBudgetExceeded, match=f"more than the limit of {10**7}$"):
            search_integer_solutions(b_max, c_max)

    def test_bounds_below_one_are_refused_first(self):
        with pytest.raises(NonPositiveParameter):
            search_integer_solutions(0, 10**9)


class TestDifferenceVerdicts:
    """The verdicts decided on one integer difference map agree with comparing both sides."""

    terms = st.fractions(min_value=F(1, 60), max_value=60, max_denominator=60)

    @settings(max_examples=300, deadline=None)
    @given(terms, terms)
    def test_pairs_match_the_sides(self, x, y):
        left, right = pair_sides(x, y)
        assert verify_power_equation(x, y) == (left == right)

    @settings(max_examples=300, deadline=None)
    @given(terms, terms, terms, terms)
    def test_tuples_match_the_sides(self, x, y, v, w):
        t = manual_tuple(x, y, v, w)
        left, right = reference_identity(t)
        assert verify_product_equation(t) == verify_fractions(x, y, v, w) == (left == right)

    @settings(max_examples=100, deadline=None)
    @given(terms, terms)
    def test_swapped_and_repeated_members_are_true(self, x, y):
        assert verify_power_equation(x, x) and verify_fractions(x, y, y, x) and verify_fractions(x, y, x, y)

    def test_euler_rows_are_true(self):
        for n in range(1, 201):
            x, y = euler_solution(n)
            left, right = pair_sides(x, y)
            assert verify_power_equation(x, y) and left == right, n
            assert not verify_power_equation(x, y * (n + 1) / n), n  # x^(y') = y'^x needs n (1 + 1/n)^2 = n + 2

    def test_family_tuples_are_true_and_bumped_ones_mostly_false(self):
        tuples = [general_solution(*abc) for abc in FAMILY_A_GRID]
        tuples = [t for t in tuples if t.is_rational] + [rational_family(b, c) for b in range(1, 9) for c in range(1, 9)]
        assert len(tuples) > 90
        still_true = set()
        for t in tuples:
            left, right = reference_identity(t)
            assert verify_product_equation(t) and left == right, t
            x, y, v, w = t.as_fractions()
            bumped = manual_tuple(x, y, v, w + 1)
            left, right = reference_identity(bumped)
            assert verify_product_equation(bumped) == (left == right), t
            if verify_product_equation(bumped):
                still_true.add(bumped.as_fractions())
        # a = 2, b = 3, c = 2 bumps to the paper's (1/6, 1/3, 1/2, 4/3)
        assert still_true == {(F(1, 6), F(1, 3), F(1, 2), F(4, 3))}

    def test_euler_command_takes_no_product_powers(self, monkeypatch, capsys):
        calls = []
        power = PrimePowerProduct.__pow__
        monkeypatch.setattr(PrimePowerProduct, "__pow__", lambda u, r: calls.append(r) or power(u, r))
        assert ONE**2 == ONE and calls == [2]  # the counter is in place
        calls.clear()
        assert cli.main(["euler", "60", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["solutions"][59]["verified"] is True
        assert not calls


def factored_verdict(x: F, y: F, v: F, w: F) -> bool:
    """x^y y^x = v^w w^v decided by _cancels on the four values' prime factorizations."""
    vx, vy, vv, vw = (PrimePowerProduct.from_fraction(q).factors for q in (x, y, v, w))
    return solutions._cancels([(y, vx), (x, vy)], [(w, vv), (v, vw)])


def euler_quad(n: int, m: int, order: int) -> tuple[tuple[F, F, F, F], bool]:
    """A quad of the Euler pairs (x_n, y_n) and (x_m, y_m), and whether it holds."""
    (x, y), (u, t) = euler_solution(n), euler_solution(m)
    return [((x, y, y, x), True), ((x, y, x, y), True), ((x, y, u, t), n == m)][order]


RATIONAL_GENERAL = [t.as_fractions() for t in (general_solution(*abc) for abc in FAMILY_A_GRID) if t.is_rational]

# (quad, whether it holds)
quads = st.one_of(
    st.builds(lambda b, c: (rational_family(b, c).as_fractions(), True), st.integers(1, 12), st.integers(1, 12)),
    st.sampled_from([(q, True) for q in RATIONAL_GENERAL]),
    st.builds(euler_quad, st.integers(1, 80), st.integers(1, 80), st.integers(0, 2)),
)


class TestCoprimeBase:
    """verify_fractions decides on a pairwise-coprime base exactly as prime factorizations do."""

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(1, 10**4) | st.builds(pow, st.integers(2, 40), st.integers(1, 60)), max_size=8))
    def test_base_is_pairwise_coprime_and_refines_every_number(self, numbers):
        base = solutions._coprime_base(numbers)
        assert all(q > 1 for q in base)
        assert all(math.gcd(p, q) == 1 for i, p in enumerate(base) for q in base[:i])
        for n in numbers:
            for q in base:
                n = exact._strip(n, q)[0]
            assert n == 1

    @settings(max_examples=400, deadline=None)
    @given(quads, st.permutations(range(2)), st.booleans(), st.integers(0, 3),
           st.sampled_from([F(1), F(2), F(1, 2), F(2, 3), F(7)]))
    def test_verdict_is_the_factored_verdict(self, quad, order, swap, i, bump):
        # a bump multiplies one member, so that the reference can factor it;
        # adding to an Euler member would leave numbers rho may not split
        (x, y, v, w), holds = quad
        left, right = [(x, y)[j] for j in order], [v, w]
        vals = right + left if swap else left + right
        vals[i] *= bump
        verdict = verify_fractions(*vals)
        assert verdict == factored_verdict(*vals)
        if bump == 1:
            assert verdict == holds

    def test_bumped_family_tuples(self):
        # the bumped tuples of TestDifferenceVerdicts, and one per member
        for b in range(1, 9):
            for c in range(1, 9):
                vals = list(rational_family(b, c).as_fractions())
                for i in range(4):
                    wrong = vals[:i] + [vals[i] + 1] + vals[i + 1:]
                    assert verify_fractions(*wrong) == factored_verdict(*wrong), (b, c, i)

    def test_wide_primes_and_unsplit_semiprimes_take_gcds_only(self):
        semiprime = 10000000000000000051 * 30000000000000000041
        for m in (2**4423 - 1, semiprime):
            assert verify_fractions(F(m), F(2), F(2), F(m)) is True
            assert verify_fractions(F(m), F(1), F(1), F(m)) is True
            assert verify_fractions(F(m), F(2), F(2), F(m + 2)) is False
            assert verify_fractions(F(m), F(1), F(1), F(1)) is False

    def test_nonpositive_values_are_refused_first_in_order(self):
        # 0 would otherwise enter the refinement, whose gcds with it never end
        for vals, shown in (((F(0), F(-1), F(2), F(3)), "0"), ((F(2), F(3), F(-1, 2), F(0)), "-1/2")):
            with pytest.raises(NonPositiveParameter, match=f"value must be positive, got {shown}$"):
                verify_fractions(*vals)
