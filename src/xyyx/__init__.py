"""Exact and high-precision toolkit for x^y = y^x, x^y y^x = v^w w^v, and
the visible-point product identities they transform into."""

from .errors import (
    DegenerateParameters,
    DomainViolation,
    FactorizationBudgetExceeded,
    NonIntegerValue,
    NonIntegralExponent,
    NonPositiveParameter,
    NonRationalTuple,
    OversizedValue,
    PointBudgetExceeded,
)
from .exact import ONE, PrimePowerProduct, digit_count, factorize, is_prime, log10_interval
from .solutions import (
    NumericVerdict,
    SolutionTuple,
    TrivialityVerdict,
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
from .transforms import (
    TransformInstance,
    TransformReport,
    closed_equality_check,
    manual_pair,
    manual_quad,
    pair_from_euler,
    quad_from_family,
    verify_pair_transform,
    verify_quad_transform,
)
from .vpv import (
    Convention,
    EvalReport,
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

__version__ = "0.1.0"
