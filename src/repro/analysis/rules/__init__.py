"""The per-file ``RPL`` rules.

Each rule sees one module at a time (see :mod:`.base`); add a module
here and list its class in :data:`RULES` to ship a new rule (see
docs/static_analysis.md).
"""

from __future__ import annotations

from typing import Tuple

from .base import FileContext, Rule
from .broad_except import BroadExceptRule
from .determinism import UnseededRngRule, WallClockRule
from .event_literals import EventLiteralRule
from .event_order import EventOrderRule
from .float_compare import FloatCompareRule
from .fork_safety import ForkSafetyRule
from .mutable_defaults import MutableDefaultRule
from .no_print import NoPrintRule
from .protocol_purity import ProtocolPurityRule
from .retry_sleep import RetrySleepRule

__all__ = ["FileContext", "RULES", "Rule"]

#: One instance of every rule, in code order.
RULES: Tuple[Rule, ...] = tuple(
    sorted(
        (
            BroadExceptRule(),
            EventLiteralRule(),
            EventOrderRule(),
            FloatCompareRule(),
            ForkSafetyRule(),
            MutableDefaultRule(),
            NoPrintRule(),
            ProtocolPurityRule(),
            RetrySleepRule(),
            UnseededRngRule(),
            WallClockRule(),
        ),
        key=lambda rule: rule.code,
    )
)
