"""Exception bases shared across the package.

Code raises the three bases directly, and the CLI maps them onto exit codes
(config error -> 2, data error -> 3, numeric divergence -> 4).  A subclass
exists only where code catches it by type or it carries data, and it lives
next to the code that raises it.  The one such subclass is
`mlp.DivergedNonFinite`, which carries the training history.
"""


class SeisregError(Exception):
    """Base class for all seisreg errors."""


class ConfigError(SeisregError):
    """Bad parameters, bad configuration, preconditions violated by the caller."""


class DataError(SeisregError):
    """Malformed or inconsistent input data (files, series, volumes)."""


class DivergenceError(SeisregError):
    """A numeric procedure produced non-finite values and was aborted."""
