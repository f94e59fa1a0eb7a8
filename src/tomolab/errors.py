"""Exception types of the package.

Input that tomolab rejects raises a ``ValueError``: either a plain one or
:class:`TomolabError`, which is a ``ValueError`` too, so ``except ValueError``
catches every rejection.  Only two kinds are told apart by callers, and they
are the two subclasses here: the CLI reports :class:`ConfigParseError` as a
config error, and the regression-to-counts translation drops the records
that raise :class:`NegativeResult`.
"""


class TomolabError(ValueError):
    """Input that tomolab rejects."""


class NegativeResult(TomolabError):
    """Round-off produced a negative implied count (out-of-model input)."""


class ConfigParseError(TomolabError):
    """Experiment configuration file is invalid."""
