"""Shared test set-up: hypothesis draws the same examples on every run
and keeps no example database, so a failure reproduces as it was seen."""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("kstab", derandomize=True, database=None)
    settings.load_profile("kstab")
