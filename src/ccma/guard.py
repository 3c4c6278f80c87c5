"""Enumeration guard: refuse desk-scale-unfriendly exhaustive loops.

The limit is decided here alone, from `CCMA_GUARD_LIMIT` or the default;
synthesis code never carries one.  Only the exhaustive searches that a
caller sizes itself (`brute_force_min_rank`, `LinearCode.min_distance`)
take an explicit override.
"""

import os

from .errors import GuardExceeded, InvalidRequest

DEFAULT_LIMIT = 1 << 20
ENV_VAR = "CCMA_GUARD_LIMIT"


def guard_limit(override=None):
    """Active guard limit: explicit override > env var > default.

    Raises InvalidRequest when the env var is set to anything but an integer
    >= 1.
    """
    if override is not None:
        return int(override)
    env = os.environ.get(ENV_VAR)
    if env:
        value = int(env) if env.strip().isdecimal() else 0
        if value < 1:
            raise InvalidRequest(f"{ENV_VAR} must be an integer >= 1, got {env!r}")
        return value
    return DEFAULT_LIMIT


def check_guard(size, what, limit=None):
    lim = guard_limit(limit)
    if size > lim:
        raise GuardExceeded(what, size, lim)
    return size
