"""The one place where a comparison becomes a check result: ``first_mismatch``
finds the first index point whose two sides differ, a ``CheckResult`` fails
exactly when it holds one, and ``report_json`` renders the results canonically."""

from __future__ import annotations

import json
from typing import NamedTuple


class CheckResult(NamedTuple):
    """Outcome of one named identity check at one parameter point."""

    check: str
    ell: int
    n: int | None
    params: dict
    counterexample: dict | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def as_dict(self) -> dict:
        d = {**self._asdict(), "status": self.status}
        if self.passed:
            del d["counterexample"]
        return d


def first_mismatch(names, points, sides) -> dict | None:
    """The first point whose two ``sides(*point)`` differ, as a dict keyed by
    ``names``: the point's coordinates, then both sides as strings.  None when
    every point agrees."""
    for point in points:
        lhs, rhs = sides(*point)
        if lhs != rhs:
            return dict(zip(names, (*point, str(lhs), str(rhs))))
    return None


def report_json(results: list[CheckResult]) -> str:
    """Canonical JSON rendering: a list of check objects, key-sorted."""
    return json.dumps([r.as_dict() for r in results], indent=2, sort_keys=True)
