"""Context matcher (Section III-C, step 3).

Checks the attacker's inferred safety context against the safety context
table and reports which rules — and therefore which unsafe control
actions — are currently applicable.
"""

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.attack_types import ControlAction
from repro.core.context_table import ContextRule, ContextTable
from repro.core.state_inference import InferredContext


@dataclass(frozen=True)
class ContextMatch:
    """A matched context rule at a specific time."""

    rule: ContextRule
    time: float

    @property
    def action(self) -> ControlAction:
        return self.rule.unsafe_action

    @property
    def hazard(self) -> str:
        return self.rule.hazard


class ContextMatcher:
    """Evaluates every rule of a context table against the current context."""

    def __init__(self, table: ContextTable, min_speed: float = 1.0):
        """Args:
            table: The safety context table.
            min_speed: Contexts are not matched below this speed (m/s); an
                almost-stationary vehicle offers no attack opportunity.
        """
        self.table = table
        self.min_speed = min_speed

    def match(self, context: InferredContext) -> List[ContextMatch]:
        """Return all rules matched by ``context`` (may be empty)."""
        if not context.valid or context.v_ego < self.min_speed:
            return []
        return [
            ContextMatch(rule=rule, time=context.time)
            for rule in self.table
            if rule.condition(context)
        ]

    def match_for_actions(
        self, context: InferredContext, actions: Sequence[ControlAction]
    ) -> Optional[ContextMatch]:
        """Return the first match whose unsafe action is one of ``actions``."""
        for match in self.match(context):
            if match.action in actions:
                return match
        return None


class DeferredMatches(SequenceABC):
    """The matches of one context, evaluated on first access.

    The attack engine hands one to
    :meth:`~repro.core.strategies.AttackStrategy.should_activate` on each
    poll, so a strategy that never reads its matches (a timer strategy
    before its start time, or activating without a steering choice)
    costs no rule evaluation.  Like the context it wraps, it is consumed
    during that call: read it there, don't retain it.
    """

    __slots__ = ("_matcher", "_context", "_matches")

    def __init__(self, matcher: ContextMatcher, context: InferredContext):
        self._matcher = matcher
        self._context = context
        self._matches: Optional[List[ContextMatch]] = None

    def _evaluate(self) -> List[ContextMatch]:
        matches = self._matches
        if matches is None:
            matches = self._matches = self._matcher.match(self._context)
        return matches

    def __len__(self) -> int:
        return len(self._evaluate())

    def __getitem__(self, index):
        return self._evaluate()[index]

    def __iter__(self):
        return iter(self._evaluate())
