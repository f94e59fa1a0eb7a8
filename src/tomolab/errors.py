"""Exception types of the package.

Input that tomolab rejects raises a ``ValueError``: a plain one or
:class:`TomolabError`, a ``ValueError`` too, so ``except ValueError`` catches
every rejection.  The CLI reports :class:`ConfigParseError` as a config error.
"""


class TomolabError(ValueError):
    """Input that tomolab rejects."""


class ConfigParseError(TomolabError):
    """Experiment configuration file is invalid."""
