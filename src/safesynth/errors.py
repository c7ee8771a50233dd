"""Semantic exception hierarchy.

Everything raised on purpose by this package derives from SafesynthError so
callers (and the CLI exit-code mapping) can distinguish our failures from
genuine bugs.
"""


class SafesynthError(Exception):
    """Base class for all errors raised by safesynth."""


class GeometryError(SafesynthError):
    """Invalid box/region/sample-space construction or domain violation."""


class PolynomialError(SafesynthError):
    """Basis/coefficient mismatch or invalid template parameters."""


class CollectionError(SafesynthError):
    """Simulator failure while collecting data; message names the index."""


class DatasetFormatError(SafesynthError):
    """Malformed dataset file; message names the offending line."""


class BoundsDomainError(SafesynthError):
    """Probabilistic-bound input outside its domain."""


class KappaBracketError(SafesynthError):
    """The posterior root equation has no sign change on (0, 1)."""


class PlannerError(SafesynthError):
    """Sample-size planning cannot proceed (bad estimate or budget hit)."""


class AssemblyError(SafesynthError):
    """Constraint assembly failed (empty grid, dimension mismatch, ...)."""


class SolverError(SafesynthError):
    """LP solve failed; carries the terminal status and, once the dual
    simplex has started, its record of the solve (`lp.LpResult`)."""

    def __init__(self, message: str, status: str = "error"):
        super().__init__(message)
        self.status = status
        self.result = None


class ConfigError(SafesynthError):
    """Invalid configuration file or option set; message names the key."""
