"""Answer verification against in-process oracles.

A predict answer must equal, field for field, what a fresh in-process
:meth:`repro.api.facade.Predictor.predict_many` returns for the same
queries: floats cross JSON by ``repr``, so equality here is
bit-identity of ``time_ns``, ``metric`` and ``error``.  A plan answer
must be byte-identical (canonical JSON) to the in-process
:meth:`repro.plan.planner.CapacityPlanner.plan` and clean under
:func:`repro.plan.invariants.check_plan`.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.api.facade import Predictor
from repro.api.plan import PlanResult
from repro.api.types import Query
from repro.plan.invariants import check_plan

from servebench.client import Outcome
from servebench.traffic import PlanTag


#: Verdicts of :meth:`Verifier.check`.  An error (a non-200 status or a
#: transport failure) is a failed operation; a wrong answer is a failed
#: operation *and* makes the run incorrect.
OK, ERROR, WRONG = "ok", "error", "wrong"


def _document(body: bytes) -> dict[str, Any] | None:
    try:
        document = json.loads(body)
    except ValueError:
        return None
    return document if isinstance(document, dict) else None


class Verifier:
    """Checks outcomes; caches oracle answers across calls."""

    def __init__(self) -> None:
        self.predictor = Predictor()
        self.expected: dict[Query, dict[str, Any]] = {}

    def _oracle(self, tags: Iterable[object]) -> None:
        """Compute (once) the expected answer of every query in ``tags``."""
        missing: dict[Query, None] = {}
        for tag in tags:
            if isinstance(tag, tuple):
                for query in tag:
                    if query not in self.expected:
                        missing[query] = None
        queries = list(missing)
        for query, result in zip(queries, self.predictor.predict_many(queries)):
            self.expected[query] = result.to_dict()

    def check(self, outcome: Outcome) -> str:
        """The verdict on one outcome: :data:`OK` for a 200 carrying the
        correct answer, :data:`ERROR` or :data:`WRONG` otherwise."""
        if outcome.status != 200 or outcome.body is None:
            return ERROR
        return OK if self._correct(outcome.request.tag, outcome.body) else WRONG

    def _correct(self, tag: object, body: bytes) -> bool:
        document = _document(body)
        if document is None:
            return False
        if isinstance(tag, PlanTag):
            plan = document.get("plan")
            if json.dumps(plan, sort_keys=True) != tag.expected:
                return False
            return not check_plan(tag.request, PlanResult.from_dict(plan))
        results = document.get("results")
        if not isinstance(results, list) or len(results) != len(tag):
            return False
        self._oracle([tag])
        return all(r == self.expected[q] for r, q in zip(results, tag))

    def check_all(self, outcomes: list[Outcome]) -> list[str]:
        """:meth:`check` for many outcomes, with one oracle batch."""
        self._oracle(o.request.tag for o in outcomes if o.status == 200)
        return [self.check(o) for o in outcomes]
