"""Exception hierarchy for trielab.

Every error raised by the library derives from TrielabError so callers (and
the CLI) can map failures to exit codes without touching builtin exceptions.
"""

from __future__ import annotations


class TrielabError(Exception):
    """Base class of all trielab errors."""


# --- environment construction / parsing ---------------------------------

class BadRows(TrielabError):
    """A transition row (or mixture weight vector) does not sum to 1."""


class BadSupport(TrielabError):
    """Mixture components do not share a single support pattern."""


class BadAlpha(TrielabError):
    """A Dirichlet concentration parameter is negative."""


class NotRegular(TrielabError):
    """The support pattern is not positive regular (or a row is degenerate)."""


class EnvParseError(TrielabError):
    """Malformed environment file; carries the 1-based offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# --- spectral computations ----------------------------------------------

class ThetaOutOfDomain(TrielabError):
    """theta lies outside (or on the boundary of) the finite-moment domain.

    Carries the offending matrix entry as ``entry=(i, j)`` (1-based) when the
    divergence is attributable to one, and ``grid_index`` when raised while
    scanning a theta grid.
    """

    def __init__(self, message: str, entry=None, grid_index=None):
        super().__init__(message)
        self.entry = entry
        self.grid_index = grid_index


class ZOutOfRange(TrielabError):
    """Requested drift value is outside the attainable closure (sup = +inf)."""


class NotStrictlyConvex(TrielabError):
    """log of the Perron root is affine: both exact drift limits coincide."""


class OutsideRegime(TrielabError):
    """No prediction exists for the requested (environment, threshold) regime."""


class ConditionsNotMet(TrielabError):
    """Saturation-regime side conditions fail for this random environment."""


# --- simulation ----------------------------------------------------------

class HeightUndefined(TrielabError):
    """Height is infinite for threshold j = 1 (a ball occupies a box at every depth)."""


class DepthCapExceeded(TrielabError):
    """Simulation exceeded the generation cap."""


class CapExceeded(TrielabError):
    """Level enumeration (or coupon box realization) exceeded its box cap."""


# --- oracle ---------------------------------------------------------------

class LengthTooShort(TrielabError):
    """Words are too short to determine the trie height."""


# --- experiments / CLI -----------------------------------------------------

class DegenerateX(TrielabError):
    """Least-squares abscissae carry no variance (or too few points)."""


class PredictionUnavailable(TrielabError):
    """The experiment ran but no predicted constant exists for its regime."""


class ConfigError(TrielabError):
    """Invalid experiment configuration."""


class IoError(TrielabError):
    """Report could not be written; carries the path in the message."""
