"""Product-identity transforms built from solution tuples.

Every solution value x becomes a product parameter in (-1, 1) through
X = (x-1)/x.  An instance holds only these parameters; its scalar identity,
x^y = y^x or x^y y^x = v^w w^v as prime-power products, is rebuilt from them
through the inverse x = 1/(1-X), so the exact identity is checkable
independently of any numerics.

Both identities compare two sides, each a product of direct products F(A, B):
F(X, Y) against F(Y, X) for a pair, F(X, Y) F(Y, X) against F(V, W) F(W, V)
for a quad.  One path verifies both, on one N x N box; a quad first checks
that its summed tail bound at N reaches the fixed TOLERANCE of 1e-8, and
falls back to the exact identity if not.  A comparison whose evaluations
would enumerate more than the fixed POINT_BUDGET of 10^7 lattice points is
refused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce

from mpmath import mp

from .errors import PointBudgetExceeded
from .exact import check_precision
from .solutions import (
    ScalarIdentity,
    euler_solution,
    general_solution,
    manual_tuple,
    pair_identity,
    quad_identity,
)
from .vpv import Convention, EvalReport, Form, check_box, check_unit, eval_product, tail_bound

TOLERANCE = Fraction(1, 10**8)
POINT_BUDGET = 10**7


@dataclass(frozen=True)
class TransformInstance:
    """Parameters (X, Y) or (X, Y, V, W) in (-1, 1) feeding the products."""

    kind: str  # "pair" | "quad"
    X: Fraction
    Y: Fraction
    V: Fraction | None = None
    W: Fraction | None = None

    def parameters(self) -> tuple[Fraction, ...]:
        if self.kind == "pair":
            return (self.X, self.Y)
        return (self.X, self.Y, self.V, self.W)

    def sides(self) -> tuple[list, list]:
        """The (A, B) arguments of each side's direct products F(A, B)."""
        X, Y, V, W = self.X, self.Y, self.V, self.W
        if self.kind == "pair":
            return [(X, Y)], [(Y, X)]
        return [(X, Y), (Y, X)], [(V, W), (W, V)]

    @property
    def scalar_identity(self) -> ScalarIdentity:
        """The scalar identity behind the parameters, rebuilt on every access."""
        values = [1 / (1 - q) for q in self.parameters()]
        if self.kind == "pair":
            return pair_identity(*values)
        return quad_identity(manual_tuple(*values))


@dataclass(frozen=True)
class TransformReport:
    """Outcome of comparing both sides of a product identity numerically.

    exact_verdict is the scalar-identity check, made on every request.  When
    the truncation cannot reach the quad TOLERANCE, warning is set to
    "infeasible-truncation", the product evaluations are skipped,
    combined_bound is the summed tail bound and exact_verdict stands in for
    the numeric verdict.
    """

    left: EvalReport | None
    right: EvalReport | None
    abs_log_diff: object
    combined_bound: object
    verdict: bool | None
    warning: str | None = None
    exact_verdict: bool | None = None
    feasible_truncation: int | None = None


def _instance(params) -> TransformInstance:
    """A pair or quad instance over params, each checked to lie in (-1, 1)."""
    checked = [check_unit(name, q) for name, q in zip("XYVW", params)]
    return TransformInstance("pair" if len(checked) == 2 else "quad", *checked)


def _from_solution(values) -> TransformInstance:
    """The instance of a solution, one parameter per solution value."""
    return _instance([(x - 1) / x for x in values])


def pair_from_euler(n: int) -> TransformInstance:
    """Pair instance X = 1-(n/(n+1))^n, Y = 1-(n/(n+1))^(n+1); both in (0, 1)."""
    return _from_solution(euler_solution(n))  # validates n


def manual_pair(X: Fraction, Y: Fraction) -> TransformInstance:
    return _instance((X, Y))


def quad_from_family(a: Fraction, b: Fraction, c: Fraction) -> TransformInstance:
    """Quad instance from the (a, b, c) solution family.

    Requires the underlying tuple to be rational-valued with every member
    above 1/2, so that each mapped parameter lands inside (-1, 1).
    """
    return _from_solution(general_solution(a, b, c).as_fractions())


def manual_quad(X: Fraction, Y: Fraction, V: Fraction, W: Fraction) -> TransformInstance:
    return _instance((X, Y, V, W))


def closed_equality_check(t: TransformInstance) -> bool:
    """Exact closed-form equality behind the instance, recomputed from scratch."""
    return t.scalar_identity.holds


def estimated_points(evaluations: int, N: int) -> int:
    """Visible points that evaluations products over an N x N box enumerate.

    A box holds about 6/pi^2 * N^2 coprime pairs; 6/pi^2 < 0.60793, and
    integer arithmetic keeps huge boxes from overflowing a float.
    """
    return -(-evaluations * N * N * 60793 // 100000)


def check_point_budget(evaluations: int, N: int) -> None:
    """Refuse product evaluations whose estimated points exceed POINT_BUDGET."""
    points = estimated_points(evaluations, N)
    if points > POINT_BUDGET:
        raise PointBudgetExceeded(
            f"estimated {points} lattice points ({evaluations} evaluations of the "
            f"{N} x {N} box) exceed the point budget of {POINT_BUDGET}"
        )


def verify_pair_transform(
    t: TransformInstance, N: int = 400, *, precision_bits: int = 256,
    convention: Convention = Convention.AXIS,
) -> TransformReport:
    """Compare F(X, Y) with F(Y, X) on the N x N box (see _verify)."""
    return _verify(t, "pair", N, precision_bits, convention)


def verify_quad_transform(
    t: TransformInstance, N: int = 400, *, precision_bits: int = 256,
    convention: Convention = Convention.AXIS,
) -> TransformReport:
    """Compare F(X, Y) F(Y, X) with F(V, W) F(W, V) on the N x N box (see _verify)."""
    return _verify(t, "quad", N, precision_bits, convention)


def _verify(
    t: TransformInstance, kind: str, N: int, precision_bits: int, convention: Convention
) -> TransformReport:
    """Verify the instance's product identity on the N x N box.

    A quad whose summed factor tail bounds at N exceed TOLERANCE would get a
    vacuous numeric comparison (and, for parameters like 2303/2304, an
    astronomically expensive one), so the report flags infeasible-truncation
    and carries the exact scalar verdict instead, with the smallest doubling
    of N whose evaluations fit POINT_BUDGET and whose tails reach TOLERANCE,
    if any.  Pairs are not gated yet: the benchmark's lattice warm-up runs
    pair transforms at N = 12, where their tails sum to 2e-2 to 8e-2, and
    expects a numeric verdict.  A comparison whose evaluations exceed
    POINT_BUDGET raises PointBudgetExceeded.
    """
    if t.kind != kind:
        raise ValueError(f"expected a {kind} instance, got {t.kind}")
    check_box(N, N)
    check_precision(precision_bits)
    sides = t.sides()
    if kind == "quad":
        with mp.workprec(160):
            tol = mp.mpf(TOLERANCE.numerator) / TOLERANCE.denominator
            tail = _sides_tail(sides, N, convention)
        if tail > tol:
            return TransformReport(
                left=None,
                right=None,
                abs_log_diff=None,
                combined_bound=tail,
                verdict=None,
                warning="infeasible-truncation",
                exact_verdict=closed_equality_check(t),
                feasible_truncation=_feasible_truncation(sides, N, convention, tol),
            )
    report = _compare_sides(sides, N, precision_bits, convention)
    return replace(report, exact_verdict=closed_equality_check(t))


def _sides_tail(sides, N: int, convention: Convention):
    """Sum of the factors' tail bounds over an N x N box, at 160 bits."""
    with mp.workprec(160):
        return sum(tail_bound(A, B, N, N, convention) for side in sides for A, B in side)


def _feasible_truncation(sides, N: int, convention: Convention, tol) -> int | None:
    """The smallest of 2N, 4N, ... within POINT_BUDGET whose tails reach tol."""
    evaluations = sum(map(len, sides))
    n = 2 * N
    while estimated_points(evaluations, n) <= POINT_BUDGET:
        if _sides_tail(sides, n, convention) <= tol:
            return n
        n *= 2
    return None


def _combine(r1: EvalReport, r2: EvalReport) -> EvalReport:
    """Merge two product evaluations into one side of a quad identity."""
    with mp.workprec(r1.precision_bits + 16):
        log_value = r1.log_value + r2.log_value
        cf = r1.closed_form_value * r2.closed_form_value
        tail = r1.tail_bound + r2.tail_bound
        diff = abs(log_value - mp.log(cf))
        product = mp.exp(log_value)
    return EvalReport(
        product_value=product,
        log_value=log_value,
        closed_form_value=cf,
        abs_log_diff=diff,
        tail_bound=tail,
        truncation=r1.truncation,
        precision_bits=r1.precision_bits,
        convention=r1.convention,
        form=r1.form,
    )


def _compare_sides(sides, N: int, precision_bits: int, convention: Convention) -> TransformReport:
    """Evaluate every factor, fold each side, and compare the two sides.

    A one-factor side is its own EvalReport.  The verdict is true iff the
    log difference is within both sides' tail bounds plus precision slack.
    """
    check_point_budget(sum(map(len, sides)), N)
    evaluate = lambda A, B: eval_product(A, B, N, N, precision_bits, convention, Form.DIRECT)
    left, right = (reduce(_combine, [evaluate(A, B) for A, B in side]) for side in sides)
    with mp.workprec(precision_bits + 16):
        diff = abs(left.log_value - right.log_value)
        slack = mp.ldexp(1, -precision_bits + 16)
        bound = left.tail_bound + right.tail_bound + slack
    return TransformReport(
        left=left,
        right=right,
        abs_log_diff=diff,
        combined_bound=bound,
        verdict=bool(diff <= bound),
    )
