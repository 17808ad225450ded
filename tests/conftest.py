"""Shared test set-up: hypothesis draws the same examples on every run
and keeps no example database, so a failure reproduces as it was seen.

When a ``@given`` test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching``, whose dependencies (libcst importing
``mypy_extensions.TypedDict``) may raise a DeprecationWarning.  Under
``filterwarnings = error`` that warning becomes an INTERNALERROR that
ends the session, so every later test would go unrun and unreported.
The module is imported once here with that warning ignored; every other
warning stays an error.
"""

import warnings

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("kstab", derandomize=True, database=None)
    settings.load_profile("kstab")

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
