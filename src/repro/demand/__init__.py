"""Demand models: item popularity, per-node profiles, request arrivals."""

from .popularity import DemandModel
from .profiles import clustered_profile, uniform_profile, validate_profile
from .requests import RequestSchedule, generate_requests

#: Version of what :func:`generate_requests` realizes, keyed into the run
#: cache wherever a sweep keys a trial's requests by their recipe (the
#: demand, client count, horizon and seed) instead of hashing the
#: realized schedule.  Bump whenever a change could alter the schedule
#: returned for given inputs and seed — cached runs of older versions
#: then stop matching and are recomputed.  Refactors that keep every
#: realized schedule bit-identical do not require a bump
#: (``tests/demand/test_request_code_version.py`` pins digests).
REQUEST_CODE_VERSION = "2026.10-requests-1"

__all__ = [
    "REQUEST_CODE_VERSION",
    "DemandModel",
    "uniform_profile",
    "clustered_profile",
    "validate_profile",
    "RequestSchedule",
    "generate_requests",
]
