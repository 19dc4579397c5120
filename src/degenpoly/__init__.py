"""Exact arithmetic for degenerate Bernoulli, Euler and Sheffer-type polynomial
families, with a mechanized identity checker and a small CLI."""

from .poly import (
    DEGREE_LIMIT, DegreeLimitExceeded, Poly, UnboundVariable, VAR_NAMES,
    ZERO, ONE, LAM, X, Y, A, B, P, as_poly,
)
from .series import NonUnitConstantTerm, NonzeroConstantTerm, OrderExceeded, Series
from .families import (
    IndexOutOfRange,
    bernoulli_deg,
    bernoulli_polynomials,
    degenerate_exp,
    euler_deg,
    euler_polynomials,
    falling_basis_coefficients,
    falling_factorial,
    higher_bernoulli,
    higher_euler,
    sheffer_type,
    stirling_first,
)
from .randvar import (
    Bernoulli,
    CustomMoments,
    IidSum,
    McEstimate,
    MomentProvider,
    ShefferSequence,
    Uniform01,
    UnsamplableProvider,
    Zero,
    expect_falling_basis,
    expect_polynomial,
    mc_estimate,
)

__version__ = "0.1.0"

# The identity registry is loaded on first use (PEP 562): of the CLI's commands
# only ``verify`` reads it, and ``python -m degenpoly.cli`` imports this package first.
_IDENTITIES_NAMES = frozenset(
    ("Report", "Mismatch", "UnknownIdentity", "registered_ids", "verify", "verify_all"))


def __getattr__(name: str):
    if name in _IDENTITIES_NAMES:
        from . import identities

        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
