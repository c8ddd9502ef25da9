"""Contact traces: containers, I/O, statistics, and generators."""

from .discrete import bernoulli_slot_trace
from .io import (
    detect_trace_format,
    load_contact_trace,
    load_csv,
    load_interval_format,
    load_jsonl,
    save_csv,
    save_jsonl,
)
from .poisson import heterogeneous_poisson_trace, homogeneous_poisson_trace
from .stats import (
    TraceStats,
    burstiness,
    inter_contact_times,
    pair_rate_matrix,
    select_best_covered,
    summarize,
)
from .trace import ContactTrace

#: Version of what the seeded trace generators realize, keyed into the
#: run cache wherever a sweep keys a trial's trace by its recipe (the
#: generator parameters plus the seed) instead of hashing the realized
#: contacts.  Bump whenever a change could alter the trace a generator
#: returns for given parameters and seed — cached runs of older versions
#: then stop matching and are recomputed.  Refactors that keep every
#: realized trace bit-identical do not require a bump
#: (``tests/contacts/test_trace_code_version.py`` pins digests).
TRACE_CODE_VERSION = "2026.10-generators-1"

__all__ = [
    "TRACE_CODE_VERSION",
    "ContactTrace",
    "homogeneous_poisson_trace",
    "heterogeneous_poisson_trace",
    "bernoulli_slot_trace",
    "pair_rate_matrix",
    "inter_contact_times",
    "burstiness",
    "TraceStats",
    "summarize",
    "select_best_covered",
    "save_csv",
    "load_interval_format",
    "load_csv",
    "save_jsonl",
    "load_jsonl",
    "detect_trace_format",
    "load_contact_trace",
]
