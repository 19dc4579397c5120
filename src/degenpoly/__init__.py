"""Exact arithmetic for degenerate Bernoulli, Euler and Sheffer-type polynomial
families, with a mechanized identity checker and a small CLI."""

from .poly import Poly, UnboundVariable, VAR_NAMES, ZERO, ONE, LAM, X, Y, A, B, P, as_poly
from .series import NonUnitConstantTerm, NonzeroConstantTerm, OrderExceeded, Series
from .families import (
    FamilyId,
    IndexOutOfRange,
    bernoulli_deg,
    bernoulli_polynomials,
    bernoulli_series,
    degenerate_exp,
    euler_deg,
    euler_polynomials,
    euler_series,
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
    independent_sum_moments,
    mc_estimate,
)
from .identities import Report, Mismatch, UnknownIdentity, registered_ids, verify, verify_all

__version__ = "0.1.0"
