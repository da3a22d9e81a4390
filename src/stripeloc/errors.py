"""Exception types shared across the package."""

from __future__ import annotations


class StripelocError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometry(StripelocError):
    """Geometric configuration has no valid answer (parallel ray, coincident points, ...)."""


class NumericalFailure(StripelocError):
    """A factorization or inversion that should succeed did not."""


class SingularFim(StripelocError):
    """Fisher information matrix is singular."""


class RankDeficient(StripelocError):
    """Least-squares model matrix lost column rank (coincident path responses)."""


class ZeroAggregate(StripelocError):
    """Aggregate used to read off a phase has (numerically) zero magnitude."""


class SearchFailure(StripelocError):
    """A grid search had nothing to search over."""


class KernelEmpty(StripelocError):
    """Null space of the path basis is empty (MK <= L)."""


class SchemaError(StripelocError):
    """Scenario file is structurally invalid; message names the offending field path."""


class SemanticError(StripelocError):
    """Scenario file parsed but describes a physically inconsistent scene."""
