"""Exception hierarchy shared by all ustatlab modules.

Every error raised by the library derives from :class:`UStatError` so callers
can catch library failures with a single handler.  Validation failures also
derive from :class:`ValueError` to keep ``isinstance`` checks conventional.
"""

from __future__ import annotations


class UStatError(Exception):
    """Base class for all ustatlab errors."""


class ValidationError(UStatError, ValueError):
    """Malformed or out-of-range input."""


class PresetError(ValidationError):
    """Unknown or malformed preset id string."""


class ArityError(ValidationError):
    """Kernel called with the wrong number of arguments."""


class BudgetError(UStatError):
    """An enumeration would exceed its configured work budget."""


class DegenerateKernel(UStatError):
    """The linear projection of the kernel has (numerically) zero variance."""


class InsufficientSample(ValidationError):
    """Sample too small for the requested statistic."""


class ZeroVarianceEstimate(UStatError):
    """A variance estimate needed in a denominator is exactly zero."""


class ConfigError(ValidationError):
    """Invalid experiment configuration."""


class IncompatibleOptions(ConfigError):
    """Options that are valid alone but not together; the CLI exits 2."""


class FitError(UStatError):
    """Too few usable points for a least-squares rate fit."""
