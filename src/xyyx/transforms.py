"""Product-identity transforms built from solution tuples.

Every solution value x becomes a product parameter in (-1, 1) through
X = (x-1)/x.  An instance holds only these parameters; its scalar identity,
x^y = y^x or x^y y^x = v^w w^v as prime-power products, is rebuilt from them
through the inverse x = 1/(1-X), so the exact identity is checkable
independently of any numerics.

Both identities compare two sides, each a product of direct products F(A, B):
F(X, Y) against F(Y, X) for a pair, F(X, Y) F(Y, X) against F(V, W) F(W, V)
for a quad.  One path verifies both; a quad first checks that its summed
tail bound can reach the fixed TOLERANCE of 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass
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
DEFAULT_POINT_BUDGET = 10**7


@dataclass(frozen=True)
class TransformInstance:
    """Parameters (X, Y) or (X, Y, V, W) in (-1, 1) feeding the products."""

    kind: str  # "pair" | "quad"
    X: Fraction
    Y: Fraction
    V: Fraction | None = None
    W: Fraction | None = None
    params: tuple[Fraction, ...] = ()  # the generating n, or a, b, c

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

    When the truncation cannot reach the quad TOLERANCE, warning is set
    to "infeasible-truncation", the product evaluations are skipped and
    exact_verdict carries the scalar-identity check instead.
    """

    left: EvalReport | None
    right: EvalReport | None
    abs_log_diff: object
    combined_bound: object
    verdict: bool | None
    warning: str | None = None
    exact_verdict: bool | None = None
    feasible_truncation: int | None = None


def _instance(params, generators: tuple[Fraction, ...] = ()) -> TransformInstance:
    """A pair or quad instance over params, each checked to lie in (-1, 1)."""
    checked = [check_unit(name, q) for name, q in zip("XYVW", params)]
    return TransformInstance("pair" if len(checked) == 2 else "quad", *checked, params=generators)


def _from_solution(values, generators: tuple[Fraction, ...]) -> TransformInstance:
    """The instance of a solution, one parameter per solution value."""
    return _instance([(x - 1) / x for x in values], generators)


def pair_from_euler(n: int) -> TransformInstance:
    """Pair instance X = 1-(n/(n+1))^n, Y = 1-(n/(n+1))^(n+1); both in (0, 1)."""
    return _from_solution(euler_solution(n), (Fraction(n),))  # validates n


def manual_pair(X: Fraction, Y: Fraction) -> TransformInstance:
    return _instance((X, Y))


def quad_from_family(a: Fraction, b: Fraction, c: Fraction) -> TransformInstance:
    """Quad instance from the (a, b, c) solution family.

    Requires the underlying tuple to be rational-valued with every member
    above 1/2, so that each mapped parameter lands inside (-1, 1).
    """
    t = general_solution(a, b, c)
    return _from_solution(t.as_fractions(), tuple(Fraction(q) for q in (a, b, c)))


def manual_quad(X: Fraction, Y: Fraction, V: Fraction, W: Fraction) -> TransformInstance:
    return _instance((X, Y, V, W))


def closed_equality_check(t: TransformInstance) -> bool:
    """Exact closed-form equality behind the instance, recomputed from scratch."""
    return t.scalar_identity.holds


def estimated_points(evaluations: int, Nj: int, Nk: int) -> int:
    """Visible points that evaluations products over an Nj x Nk box enumerate.

    A box holds about 6/pi^2 * Nj * Nk coprime pairs; 6/pi^2 < 0.60793, and
    integer arithmetic keeps huge boxes from overflowing a float.
    """
    return -(-evaluations * Nj * Nk * 60793 // 100000)


def check_point_budget(evaluations: int, Nj: int, Nk: int, budget: int) -> None:
    """Refuse product evaluations whose estimated points exceed the budget."""
    points = estimated_points(evaluations, Nj, Nk)
    if points > budget:
        raise PointBudgetExceeded(
            f"estimated {points} lattice points ({evaluations} evaluations of the "
            f"{Nj} x {Nk} box) exceed the point budget of {budget}"
        )


def _slack(precision_bits: int):
    return mp.ldexp(1, -precision_bits + 16)


def verify_pair_transform(
    t: TransformInstance,
    Nj: int = 400,
    Nk: int = 400,
    precision_bits: int = 256,
    convention: Convention = Convention.AXIS,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> TransformReport:
    """Compare the (X, Y) and (Y, X) direct products in the log domain.

    Verdict is true iff the log difference is within the two tail bounds plus
    precision slack.  Raises PointBudgetExceeded when the two evaluations
    would enumerate more than point_budget points.
    """
    sides = _checked_sides(t, "pair", Nj, Nk, precision_bits)
    return _compare_sides(sides, Nj, Nk, precision_bits, convention, point_budget)


def _checked_sides(t: TransformInstance, kind: str, Nj: int, Nk: int, precision_bits: int):
    """The instance's sides, once its kind, box and precision are accepted."""
    if t.kind != kind:
        raise ValueError(f"expected a {kind} instance, got {t.kind}")
    check_box(Nj, Nk)
    check_precision(precision_bits)
    return t.sides()


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


def _compare_sides(
    sides, Nj: int, Nk: int, precision_bits: int, convention: Convention, point_budget: int
) -> TransformReport:
    """Evaluate every factor, fold each side, and compare the two sides.

    A one-factor side is its own EvalReport.  The verdict is true iff the
    log difference is within both sides' tail bounds plus precision slack.
    """
    check_point_budget(sum(map(len, sides)), Nj, Nk, point_budget)
    evaluate = lambda A, B: eval_product(A, B, Nj, Nk, precision_bits, convention, Form.DIRECT)
    left, right = (reduce(_combine, [evaluate(A, B) for A, B in side]) for side in sides)
    with mp.workprec(precision_bits + 16):
        diff = abs(left.log_value - right.log_value)
        bound = left.tail_bound + right.tail_bound + _slack(precision_bits)
    return TransformReport(
        left=left,
        right=right,
        abs_log_diff=diff,
        combined_bound=bound,
        verdict=bool(diff <= bound),
    )


def _sides_tail(sides, N: int, convention: Convention):
    """Sum of the factors' tail bounds over an N x N box, at 160 bits."""
    with mp.workprec(160):
        return sum(tail_bound(A, B, N, N, convention) for side in sides for A, B in side)


def verify_quad_transform(
    t: TransformInstance,
    Nj: int = 400,
    Nk: int = 400,
    precision_bits: int = 256,
    convention: Convention = Convention.AXIS,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> TransformReport:
    """Compare both sides of the four-parameter product identity.

    Each side is the product of two evaluations with swapped arguments.  When
    the combined tail bound at the requested truncation exceeds the fixed
    TOLERANCE the numeric comparison would be vacuous (and, for parameters
    like 2303/2304, astronomically expensive), so the report flags
    infeasible-truncation and carries the exact scalar verdict instead, with
    the smallest doubling of the truncation whose four evaluations fit
    point_budget, if any.  A feasible comparison whose evaluations exceed
    point_budget raises PointBudgetExceeded.
    """
    sides = _checked_sides(t, "quad", Nj, Nk, precision_bits)
    N = max(Nj, Nk)
    with mp.workprec(160):
        tol = mp.mpf(TOLERANCE.numerator) / TOLERANCE.denominator
        requested_tail = _sides_tail(sides, N, convention)
    if requested_tail <= tol:
        return _compare_sides(sides, Nj, Nk, precision_bits, convention, point_budget)
    # the tails at N are above tol already, so the doubling starts at 2N
    feasible = 2 * N
    while estimated_points(sum(map(len, sides)), feasible, feasible) <= point_budget:
        if _sides_tail(sides, feasible, convention) <= tol:
            break
        feasible *= 2
    else:
        feasible = None
    return TransformReport(
        left=None,
        right=None,
        abs_log_diff=None,
        combined_bound=requested_tail,
        verdict=None,
        warning="infeasible-truncation",
        exact_verdict=closed_equality_check(t),
        feasible_truncation=feasible,
    )
