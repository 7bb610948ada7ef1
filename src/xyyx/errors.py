"""Exception types shared across the package."""


class NonPositiveParameter(ValueError):
    """A strictly positive value was required."""


class NonIntegralExponent(ValueError):
    """A prime-power product with fractional exponents has no rational value."""


class NonIntegerValue(ValueError):
    """An integer-valued product was required (nonnegative integer exponents)."""


class NonRationalTuple(ValueError):
    """A solution tuple with irrational members where rationals were required."""


class DegenerateParameters(ValueError):
    """Parameters for which the solution formula is undefined."""


class DomainViolation(ValueError):
    """A product parameter lies outside the open unit interval (-1, 1)."""


class PointBudgetExceeded(ValueError):
    """A product evaluation would enumerate more lattice points than allowed."""


class FactorizationBudgetExceeded(ValueError):
    """Brent's rho ran out of steps before splitting a composite."""


class OversizedValue(ValueError):
    """A value, named by what, has more decimal digits than the interpreter converts to a string."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"{what} has more than {limit} decimal digits")
        self.what = what
