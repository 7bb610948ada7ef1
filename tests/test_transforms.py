from fractions import Fraction as F

import pytest
from mpmath import mp

from xyyx.errors import DomainViolation, NonRationalTuple, PointBudgetExceeded
from xyyx.solutions import euler_solution
from xyyx.transforms import (
    closed_equality_check,
    manual_pair,
    manual_quad,
    pair_from_euler,
    quad_from_family,
    verify_pair_transform,
    verify_quad_transform,
)
from xyyx.vpv import Convention


class TestPairFromEuler:
    def test_known_parameters(self):
        assert pair_from_euler(1).parameters() == (F(1, 2), F(3, 4))
        assert pair_from_euler(2).parameters() == (F(5, 9), F(19, 27))
        assert pair_from_euler(3).parameters() == (F(37, 64), F(175, 256))

    def test_inverse_map_recovers_solution(self):
        for n in range(1, 7):
            inst = pair_from_euler(n)
            x, y = euler_solution(n)
            assert 1 / (1 - inst.X) == x
            assert 1 / (1 - inst.Y) == y

    def test_scalar_identity_holds_by_construction(self):
        for n in range(1, 7):
            inst = pair_from_euler(n)
            assert inst.scalar_identity.holds
            assert closed_equality_check(inst)


class TestQuadFromFamily:
    def test_8_6_2_parameters(self):
        inst = quad_from_family(F(8), F(6), F(2))
        assert inst.parameters() == (F(287, 288), F(2303, 2304), F(1727, 1728), F(575, 576))
        assert inst.scalar_identity.holds

    def test_3_2_1_parameters(self):
        inst = quad_from_family(F(3), F(2), F(1))
        assert inst.parameters() == (F(-1, 2), F(1, 2), F(1, 4), F(-1, 2))

    def test_boundary_raises_domain_violation(self):
        # (2, 1, 1) gives x = 1/2, so X = (x-1)/x = -1 exactly
        with pytest.raises(DomainViolation) as err:
            quad_from_family(F(2), F(1), F(1))
        assert "X" in str(err.value)

    def test_irrational_family_rejected(self):
        with pytest.raises(NonRationalTuple):
            quad_from_family(F(5), F(2), F(1))

    def test_inverse_map_round_trip(self):
        for a, b, c in ((3, 2, 1), (4, 2, 2), (8, 6, 2), (9, 6, 3)):
            inst = quad_from_family(F(a), F(b), F(c))
            x = 1 / (1 - inst.X)
            assert (x - 1) / x == inst.X
            assert inst.params == (F(a), F(b), F(c))


class TestClosedEqualityCheck:
    def test_euler_instance(self):
        assert closed_equality_check(pair_from_euler(1)) is True

    def test_family_instance(self):
        assert closed_equality_check(quad_from_family(F(8), F(6), F(2))) is True

    def test_manual_mismatch(self):
        inst = manual_quad(F(1, 2), F(3, 4), F(1, 2), F(1, 2))
        assert closed_equality_check(inst) is False
        assert not inst.scalar_identity.holds


class TestVerifyPairTransform:
    def test_euler_1_axis_true(self):
        rep = verify_pair_transform(pair_from_euler(1), 200, 200, 256)
        assert rep.verdict is True
        assert rep.abs_log_diff <= rep.combined_bound
        # both sides converge to the same direct closed form 1/16
        with mp.workprec(280):
            assert abs(rep.left.closed_form_value - F(1, 16)) < mp.mpf("1e-60")
            assert abs(rep.right.closed_form_value - F(1, 16)) < mp.mpf("1e-60")

    def test_euler_1_strict_false(self):
        # strict closed forms (1/4)^1 vs (1/2)^3 differ: convention sensitivity
        rep = verify_pair_transform(pair_from_euler(1), 200, 200, 256, Convention.STRICT)
        assert rep.verdict is False

    def test_printed_erratum_instance_fails(self):
        # the (1/2, 1/4) vs (1/4, 1/2) comparison: not a valid transform pair
        inst = manual_pair(F(1, 2), F(1, 4))
        assert not inst.scalar_identity.holds
        rep = verify_pair_transform(inst, 150, 150, 256)
        assert rep.verdict is False
        with mp.workprec(280):
            assert rep.abs_log_diff > mp.mpf("0.3")

    def test_verdict_invariant_under_swap(self):
        for X, Y in ((F(1, 2), F(3, 4)), (F(1, 2), F(1, 4))):
            a = verify_pair_transform(manual_pair(X, Y), 120, 120, 192)
            b = verify_pair_transform(manual_pair(Y, X), 120, 120, 192)
            assert a.verdict == b.verdict

    def test_over_budget_raises(self):
        with pytest.raises(PointBudgetExceeded):
            verify_pair_transform(pair_from_euler(1), 150, 150, 256, point_budget=10**4)

    def test_rejects_quad_instance(self):
        with pytest.raises(ValueError):
            verify_pair_transform(quad_from_family(F(3), F(2), F(1)))


class TestVerifyQuadTransform:
    def test_3_2_1_true(self):
        rep = verify_quad_transform(quad_from_family(F(3), F(2), F(1)), 200, 200, 256)
        assert rep.warning is None
        assert rep.verdict is True
        assert rep.abs_log_diff <= rep.combined_bound

    def test_4_2_2_true(self):
        rep = verify_quad_transform(quad_from_family(F(4), F(2), F(2)), 400, 400, 256)
        assert rep.verdict is True

    def test_4_2_2_infeasible_below_400(self):
        # the swapped side's tail at N=300 is ~8e-8, above the 1e-8 tolerance
        rep = verify_quad_transform(quad_from_family(F(4), F(2), F(2)), 300, 300, 256)
        assert rep.warning == "infeasible-truncation"
        assert rep.exact_verdict is True
        assert rep.feasible_truncation == 600  # doubling search from 300

    def test_8_6_2_infeasible_with_exact_fallback(self):
        rep = verify_quad_transform(quad_from_family(F(8), F(6), F(2)), 1000, 1000, 256)
        assert rep.warning == "infeasible-truncation"
        assert rep.verdict is None
        assert rep.left is None
        assert rep.exact_verdict is True
        assert rep.feasible_truncation is None  # not within the default budget

    def test_feasible_but_over_budget_raises(self):
        with pytest.raises(PointBudgetExceeded):
            verify_quad_transform(
                quad_from_family(F(3), F(2), F(1)), 200, 200, 256, point_budget=10**4
            )

    def test_bad_quad_still_reports_false_exact_verdict(self):
        inst = manual_quad(F(1, 2), F(3, 4), F(1, 2), F(1, 2))
        rep = verify_quad_transform(inst, 150, 150, 256)
        assert rep.verdict is False

    def test_combined_bound_shrinks_with_truncation(self):
        inst = quad_from_family(F(4), F(2), F(2))
        r1 = verify_quad_transform(inst, 300, 300, 256)
        r2 = verify_quad_transform(inst, 500, 500, 256)
        assert r2.combined_bound < r1.combined_bound
