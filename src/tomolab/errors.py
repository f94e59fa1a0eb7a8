"""Exception types of the package and its one integer rule.

Input that tomolab rejects raises a ``ValueError``: a plain one or
:class:`TomolabError`, a ``ValueError`` too, so ``except ValueError`` catches
every rejection.  The CLI reports :class:`ConfigParseError` as a config error.
``_checked_integer`` is the one integer check; ``rng.substream`` applies it to every seed.
"""

import numbers


class TomolabError(ValueError):
    """Input that tomolab rejects."""


class ConfigParseError(TomolabError):
    """Experiment configuration file is invalid."""


def _checked_integer(name: str, value, least: int) -> int:
    """``value`` as an int; TomolabError naming ``name`` unless it is an integer >= ``least``."""
    if not isinstance(value, numbers.Integral):
        raise TomolabError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise TomolabError(f"{name} must be at least {least}, got {value}")
    return int(value)
