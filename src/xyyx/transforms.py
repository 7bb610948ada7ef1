"""Product-identity transforms built from solution tuples.

A solution x^y = y^x maps to product parameters via x = 1/(1-X), y = 1/(1-Y);
a four-value solution maps via X = (x-1)/x, Y = (ax-1)/(ax), V = (bx-1)/(bx),
W = (cx-1)/(cx).  Each instance carries the underlying scalar equality as
prime-power products, so the exact identity is checkable independently of any
numerics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import DomainViolation, NonPositiveParameter, PointBudgetExceeded
from .exact import PrimePowerProduct
from .solutions import SolutionTuple, euler_solution, general_solution
from .vpv import Convention, EvalReport, Form, eval_product, tail_bound

DEFAULT_TOLERANCE = Fraction(1, 10**8)
DEFAULT_POINT_BUDGET = 10**7


@dataclass(frozen=True)
class ScalarIdentity:
    """Both sides of the underlying power equality, as prime-power products."""

    left: PrimePowerProduct
    right: PrimePowerProduct

    @property
    def holds(self) -> bool:
        return self.left == self.right


@dataclass(frozen=True)
class TransformInstance:
    """Parameters (X, Y) or (X, Y, V, W) in (-1, 1) feeding the products."""

    kind: str  # "pair" | "quad"
    X: Fraction
    Y: Fraction
    V: Fraction | None = None
    W: Fraction | None = None
    source: str = "manual"  # "euler" | "family" | "manual"
    params: tuple[Fraction, ...] = ()
    scalar_identity: ScalarIdentity | None = None

    def parameters(self) -> tuple[Fraction, ...]:
        if self.kind == "pair":
            return (self.X, self.Y)
        return (self.X, self.Y, self.V, self.W)


@dataclass(frozen=True)
class TransformReport:
    """Outcome of comparing both sides of a product identity numerically.

    When the truncation cannot reach the comparison tolerance, warning is set
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


def _pair_identity(x: Fraction, y: Fraction) -> ScalarIdentity:
    vx = PrimePowerProduct.from_fraction(x)
    vy = PrimePowerProduct.from_fraction(y)
    return ScalarIdentity(vx**y, vy**x)


def _quad_identity(t: SolutionTuple) -> ScalarIdentity:
    xq, yq, vq, wq = t.as_fractions()
    return ScalarIdentity((t.x**yq) * (t.y**xq), (t.v**wq) * (t.w**vq))


def _unit_fraction(name: str, q: Fraction) -> Fraction:
    if abs(q) >= 1:
        raise DomainViolation(f"parameter {name} = {q} has magnitude >= 1")
    return q


def pair_from_euler(n: int) -> TransformInstance:
    """Pair instance X = 1-(n/(n+1))^n, Y = 1-(n/(n+1))^(n+1); both in (0, 1)."""
    x, y = euler_solution(n)  # validates n
    X, Y = 1 - 1 / x, 1 - 1 / y
    return TransformInstance(
        kind="pair",
        X=X,
        Y=Y,
        source="euler",
        params=(Fraction(n),),
        scalar_identity=_pair_identity(x, y),
    )


def manual_pair(X: Fraction, Y: Fraction) -> TransformInstance:
    X = _unit_fraction("X", Fraction(X))
    Y = _unit_fraction("Y", Fraction(Y))
    return TransformInstance(
        kind="pair",
        X=X,
        Y=Y,
        scalar_identity=_pair_identity(1 / (1 - X), 1 / (1 - Y)),
    )


def quad_from_family(a: Fraction, b: Fraction, c: Fraction) -> TransformInstance:
    """Quad instance from the (a, b, c) solution family.

    Requires the underlying tuple to be rational-valued with every member
    above 1/2, so that each mapped parameter lands inside (-1, 1).
    """
    t = general_solution(a, b, c)
    xq, yq, vq, wq = t.as_fractions()
    X = _unit_fraction("X", (xq - 1) / xq)
    Y = _unit_fraction("Y", (yq - 1) / yq)
    V = _unit_fraction("V", (vq - 1) / vq)
    W = _unit_fraction("W", (wq - 1) / wq)
    return TransformInstance(
        kind="quad",
        X=X,
        Y=Y,
        V=V,
        W=W,
        source="family",
        params=tuple(Fraction(q) for q in (a, b, c)),
        scalar_identity=_quad_identity(t),
    )


def manual_quad(X: Fraction, Y: Fraction, V: Fraction, W: Fraction) -> TransformInstance:
    X, Y, V, W = (_unit_fraction(n, Fraction(q)) for n, q in zip("XYVW", (X, Y, V, W)))
    f = PrimePowerProduct.from_fraction
    t = SolutionTuple(f(1 / (1 - X)), f(1 / (1 - Y)), f(1 / (1 - V)), f(1 / (1 - W)))
    return TransformInstance(
        kind="quad", X=X, Y=Y, V=V, W=W, scalar_identity=_quad_identity(t)
    )


def closed_equality_check(t: TransformInstance) -> bool:
    """Exact closed-form equality behind the instance, recomputed from scratch."""
    if t.kind == "pair":
        return _pair_identity(1 / (1 - t.X), 1 / (1 - t.Y)).holds
    f = PrimePowerProduct.from_fraction
    sol = SolutionTuple(
        f(1 / (1 - t.X)), f(1 / (1 - t.Y)), f(1 / (1 - t.V)), f(1 / (1 - t.W))
    )
    return _quad_identity(sol).holds


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
    if t.kind != "pair":
        raise ValueError(f"expected a pair instance, got {t.kind}")
    check_point_budget(2, Nj, Nk, point_budget)
    left = eval_product(t.X, t.Y, Nj, Nk, precision_bits, convention, Form.DIRECT)
    right = eval_product(t.Y, t.X, Nj, Nk, precision_bits, convention, Form.DIRECT)
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


def _quad_tail(t: TransformInstance, N: int, convention: Convention):
    with mp.workprec(160):
        return (
            tail_bound(t.X, t.Y, N, N, convention)
            + tail_bound(t.Y, t.X, N, N, convention)
            + tail_bound(t.V, t.W, N, N, convention)
            + tail_bound(t.W, t.V, N, N, convention)
        )


def _smallest_feasible_truncation(
    t: TransformInstance, start: int, tol, budget: int, convention: Convention
) -> int | None:
    n = max(start, 1)
    while estimated_points(4, n, n) <= budget:
        if _quad_tail(t, n, convention) <= tol:
            return n
        n *= 2
    return None


def verify_quad_transform(
    t: TransformInstance,
    Nj: int = 400,
    Nk: int = 400,
    precision_bits: int = 256,
    convention: Convention = Convention.AXIS,
    tolerance: Fraction = DEFAULT_TOLERANCE,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> TransformReport:
    """Compare both sides of the four-parameter product identity.

    Each side is the product of two evaluations with swapped arguments.  When
    the combined tail bound at the requested truncation exceeds tolerance the
    numeric comparison would be vacuous (and, for parameters like 2303/2304,
    astronomically expensive), so the report flags infeasible-truncation and
    carries the exact scalar verdict instead, with the smallest doubling of
    the truncation whose four evaluations fit point_budget, if any.  A
    feasible comparison whose evaluations exceed point_budget raises
    PointBudgetExceeded.
    """
    if t.kind != "quad":
        raise ValueError(f"expected a quad instance, got {t.kind}")
    with mp.workprec(160):
        tol = _mpf_tol(tolerance)
        requested_tail = _quad_tail(t, max(Nj, Nk), convention)
    if requested_tail > tol:
        feasible = _smallest_feasible_truncation(
            t, max(Nj, Nk), tol, point_budget, convention
        )
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
    check_point_budget(4, Nj, Nk, point_budget)
    lx = eval_product(t.X, t.Y, Nj, Nk, precision_bits, convention, Form.DIRECT)
    ly = eval_product(t.Y, t.X, Nj, Nk, precision_bits, convention, Form.DIRECT)
    rv = eval_product(t.V, t.W, Nj, Nk, precision_bits, convention, Form.DIRECT)
    rw = eval_product(t.W, t.V, Nj, Nk, precision_bits, convention, Form.DIRECT)
    left = _combine(lx, ly)
    right = _combine(rv, rw)
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


def _mpf_tol(tolerance: Fraction):
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise NonPositiveParameter(f"tolerance must be positive, got {tolerance}")
    return mp.mpf(tolerance.numerator) / mp.mpf(tolerance.denominator)
