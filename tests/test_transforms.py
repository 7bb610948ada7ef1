from fractions import Fraction as F

import pytest
from mpmath import mp

from xyyx import transforms
from xyyx.errors import DomainViolation, NonRationalTuple, PointBudgetExceeded
from xyyx.solutions import euler_solution, general_solution, pair_identity, quad_identity
from xyyx.transforms import (
    TransformInstance,
    closed_equality_check,
    estimated_points,
    manual_pair,
    manual_quad,
    pair_from_euler,
    quad_from_family,
    verify_pair_transform,
    verify_quad_transform,
)
from xyyx.vpv import Convention, Form, eval_product, tail_bound


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

    def test_scalar_identity_is_the_solution_identity(self):
        # rebuilt from X, Y through x = 1/(1-X), it equals the identity of (x, y)
        for n in range(1, 21):
            assert pair_from_euler(n).scalar_identity == pair_identity(*euler_solution(n))


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

    def test_domain_message_names_the_parameter(self):
        with pytest.raises(DomainViolation, match=r"\|V\| must be < 1, got V = 1"):
            manual_quad(F(1, 2), F(1, 2), F(1), F(1, 2))

    def test_irrational_family_rejected(self):
        with pytest.raises(NonRationalTuple):
            quad_from_family(F(5), F(2), F(1))

    def test_inverse_map_round_trip(self):
        for a, b, c in ((3, 2, 1), (4, 2, 2), (8, 6, 2), (9, 6, 3)):
            inst = quad_from_family(F(a), F(b), F(c))
            x = 1 / (1 - inst.X)
            assert (x - 1) / x == inst.X

    @pytest.mark.parametrize("abc", [(3, 2, 1), (4, 2, 2), (5, 3, 2), (8, 6, 2), (9, 6, 3)])
    def test_scalar_identity_is_the_solution_identity(self, abc):
        a, b, c = map(F, abc)
        assert quad_from_family(a, b, c).scalar_identity == quad_identity(general_solution(a, b, c))

    def test_instance_holds_only_parameters(self):
        fields = TransformInstance.__dataclass_fields__
        assert set(fields) == {"kind", "X", "Y", "V", "W"}


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
        rep = verify_pair_transform(pair_from_euler(1), 200)
        assert rep.verdict is True
        assert rep.abs_log_diff <= rep.combined_bound
        # both sides converge to the same direct closed form 1/16
        with mp.workprec(280):
            assert abs(rep.left.closed_form_value - F(1, 16)) < mp.mpf("1e-60")
            assert abs(rep.right.closed_form_value - F(1, 16)) < mp.mpf("1e-60")

    def test_euler_1_strict_false(self):
        # strict closed forms (1/4)^1 vs (1/2)^3 differ: convention sensitivity
        rep = verify_pair_transform(pair_from_euler(1), 200, convention=Convention.STRICT)
        assert rep.verdict is False

    def test_printed_erratum_instance_fails(self):
        # the (1/2, 1/4) vs (1/4, 1/2) comparison: not a valid transform pair
        inst = manual_pair(F(1, 2), F(1, 4))
        assert not inst.scalar_identity.holds
        rep = verify_pair_transform(inst, 150)
        assert rep.verdict is False
        with mp.workprec(280):
            assert rep.abs_log_diff > mp.mpf("0.3")

    def test_verdict_invariant_under_swap(self):
        for X, Y in ((F(1, 2), F(3, 4)), (F(1, 2), F(1, 4))):
            a = verify_pair_transform(manual_pair(X, Y), 120, precision_bits=192)
            b = verify_pair_transform(manual_pair(Y, X), 120, precision_bits=192)
            assert a.verdict == b.verdict

    def test_over_budget_raises(self):
        # 2 evaluations of the 4100 x 4100 box: about 2.04e7 points
        with pytest.raises(PointBudgetExceeded, match="point budget of 10000000"):
            verify_pair_transform(pair_from_euler(1), 4100)

    def test_sides_are_the_eval_product_reports(self):
        inst = pair_from_euler(2)
        rep = verify_pair_transform(inst, 60, precision_bits=128, convention=Convention.STRICT)
        assert rep.left == eval_product(inst.X, inst.Y, 60, 60, 128, Convention.STRICT, Form.DIRECT)
        assert rep.right == eval_product(inst.Y, inst.X, 60, 60, 128, Convention.STRICT, Form.DIRECT)

    def test_rejects_quad_instance(self):
        with pytest.raises(ValueError):
            verify_pair_transform(quad_from_family(F(3), F(2), F(1)))

    @pytest.mark.parametrize("verify", [verify_pair_transform, verify_quad_transform])
    def test_precision_and_convention_are_keyword_only(self, verify):
        # an old (t, Nj, Nk, bits) call must not run at another precision
        with pytest.raises(TypeError):
            verify(pair_from_euler(1), 60, 60, 128)


class TestVerifyQuadTransform:
    def test_3_2_1_true(self):
        rep = verify_quad_transform(quad_from_family(F(3), F(2), F(1)), 200)
        assert rep.warning is None
        assert rep.verdict is True
        assert rep.abs_log_diff <= rep.combined_bound

    def test_4_2_2_true(self):
        rep = verify_quad_transform(quad_from_family(F(4), F(2), F(2)), 400)
        assert rep.verdict is True

    def test_4_2_2_infeasible_below_400(self):
        # the swapped side's tail at N=300 is ~8e-8, above the 1e-8 tolerance
        rep = verify_quad_transform(quad_from_family(F(4), F(2), F(2)), 300)
        assert rep.warning == "infeasible-truncation"
        assert rep.exact_verdict is True
        assert rep.feasible_truncation == 600  # doubling search from 300

    def test_fallback_bound_sums_every_factor_tail(self):
        inst = quad_from_family(F(4), F(2), F(2))
        rep = verify_quad_transform(inst, 300)
        X, Y, V, W = inst.parameters()
        with mp.workprec(160):
            tails = [tail_bound(A, B, 300, 300) for A, B in ((X, Y), (Y, X), (V, W), (W, V))]
            assert rep.combined_bound == ((tails[0] + tails[1]) + tails[2]) + tails[3]

    def test_8_6_2_infeasible_with_exact_fallback(self):
        rep = verify_quad_transform(quad_from_family(F(8), F(6), F(2)), 1000)
        assert rep.warning == "infeasible-truncation"
        assert rep.verdict is None
        assert rep.left is None
        assert rep.exact_verdict is True
        assert rep.feasible_truncation is None  # not within the default budget

    def test_feasible_but_over_budget_raises(self):
        # 4 evaluations of the 2100 x 2100 box: about 1.07e7 points
        with pytest.raises(PointBudgetExceeded, match="point budget of 10000000"):
            verify_quad_transform(quad_from_family(F(3), F(2), F(1)), 2100)

    def test_side_is_the_sum_of_its_factors(self):
        inst = quad_from_family(F(3), F(2), F(1))
        rep = verify_quad_transform(inst, 60, precision_bits=192)
        lx = eval_product(inst.X, inst.Y, 60, 60, 192)
        ly = eval_product(inst.Y, inst.X, 60, 60, 192)
        rv = eval_product(inst.V, inst.W, 60, 60, 192)
        rw = eval_product(inst.W, inst.V, 60, 60, 192)
        with mp.workprec(192 + 16):
            assert rep.left.log_value == lx.log_value + ly.log_value
            assert rep.right.log_value == rv.log_value + rw.log_value
            assert rep.left.tail_bound == lx.tail_bound + ly.tail_bound

    @pytest.mark.parametrize("precision_bits, N", [(10, 100), (256, 0), (256, -1)])
    def test_inputs_checked_before_the_tail_gate(self, precision_bits, N):
        # (8, 6, 2) is infeasible at any N here, so a missing check would fall back
        with pytest.raises(ValueError):
            verify_quad_transform(
                quad_from_family(F(8), F(6), F(2)), N, precision_bits=precision_bits
            )

    def test_bad_quad_still_reports_false_exact_verdict(self):
        inst = manual_quad(F(1, 2), F(3, 4), F(1, 2), F(1, 2))
        rep = verify_quad_transform(inst, 150)
        assert rep.verdict is False

    def test_feasible_truncation_matches_doubling_from_N(self, monkeypatch):
        with mp.workprec(160):
            tol = mp.mpf(1) / 10**8

        def tails(inst, n):
            X, Y, V, W = inst.parameters()
            with mp.workprec(160):
                return sum(tail_bound(A, B, n, n) for A, B in ((X, Y), (Y, X), (V, W), (W, V)))

        def reference(inst, N, budget):
            # the smallest of N, 2N, 4N, ... within the budget whose tails reach tol
            n = N
            while estimated_points(4, n) <= budget:
                if tails(inst, n) <= tol:
                    return n
                n *= 2
            return None

        found = []
        for abc in ((4, 2, 2), (5, 3, 2), (8, 6, 2), (9, 6, 3)):
            inst = quad_from_family(*map(F, abc))
            for N in (1, 3, 50, 301, 1000):
                if tails(inst, N) <= tol:
                    continue  # feasible at N: a numeric comparison, not a search
                # 10 stops the search at once for N >= 3, and 10**4 for N = 301
                for budget in (10, 10**4, 3 * 10**5, 10**6, 10**8):
                    monkeypatch.setattr(transforms, "POINT_BUDGET", budget)
                    rep = verify_quad_transform(inst, N)
                    assert rep.warning == "infeasible-truncation"
                    assert rep.feasible_truncation == reference(inst, N, budget), (abc, N, budget)
                    found.append(rep.feasible_truncation)
        assert None in found and len(set(found)) > 4

    def test_combined_bound_shrinks_with_truncation(self):
        inst = quad_from_family(F(4), F(2), F(2))
        r1 = verify_quad_transform(inst, 300)
        r2 = verify_quad_transform(inst, 500)
        assert r2.combined_bound < r1.combined_bound


GATE_INSTANCES = {
    "3-2-1": quad_from_family(F(3), F(2), F(1)),
    "4-2-2": quad_from_family(F(4), F(2), F(2)),
    "false": manual_quad(F(1, 2), F(3, 4), F(1, 2), F(1, 2)),
}


class TestTailGate:
    """A quad report without a warning rests on tails within TOLERANCE."""

    @pytest.mark.parametrize("N", [1, 2, 5, 20, 60, 150])
    @pytest.mark.parametrize("name", sorted(GATE_INSTANCES))
    def test_numeric_verdicts_rest_on_tails_within_tolerance(self, name, N):
        inst = GATE_INSTANCES[name]
        rep = verify_quad_transform(inst, N, precision_bits=128)
        assert rep.exact_verdict is closed_equality_check(inst)
        if rep.warning is None:
            with mp.workprec(160):
                assert rep.left.tail_bound + rep.right.tail_bound <= mp.mpf(1) / 10**8
            assert rep.left.truncation == rep.right.truncation == (N, N)
        else:
            assert rep.warning == "infeasible-truncation" and rep.verdict is None
        if name == "false":
            assert rep.verdict is not True
