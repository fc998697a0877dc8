"""Exception hierarchy shared across the package."""


class OrthantGibbsError(Exception):
    """Base class for all package errors."""


class ShapeError(OrthantGibbsError):
    """Array dimensions inconsistent with the declared model/geometry."""


class DomainError(OrthantGibbsError):
    """Evaluation requested outside the model's admissible set."""


class ConfigError(OrthantGibbsError):
    """Invalid or inconsistent configuration."""


class NonFiniteError(OrthantGibbsError):
    """A numeric quantity became non-finite where finiteness is required."""


class DegenerateChainError(OrthantGibbsError):
    """A chain is constant (or otherwise degenerate) and cannot be diagnosed."""


class NumericalError(OrthantGibbsError):
    """A numerical routine (eigensolve, etc.) failed to converge."""
