"""The one place where a comparison becomes a check result: ``first_mismatch``
compares two sides one row of index points at a time and names the first
point where they differ, a ``CheckResult`` fails exactly when it holds one,
and ``report_json`` renders the results canonically."""

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


def first_mismatch(names, rows) -> dict | None:
    """The first index point whose two sides differ, as a dict keyed by
    ``names``: the point's coordinates, then both sides as strings.  None when
    every row agrees.

    Each row is ``(prefix, start, lhs, rhs)``: entry ``j`` of the equal-length
    tuples ``lhs`` and ``rhs`` is the point ``(*prefix, start + j)``.  A row is
    compared whole, and only a row that differs is scanned; one that differs
    in no entry (a length or type mismatch) raises ``ValueError``."""
    for prefix, start, lhs, rhs in rows:
        if lhs != rhs:
            for j, (a, b) in enumerate(zip(lhs, rhs, strict=True)):
                if a != b:
                    return dict(zip(names, (*prefix, start + j, str(a), str(b))))
            what = f"a {type(lhs).__name__} and a {type(rhs).__name__}"
            raise ValueError(f"row {prefix}: {what} differ in no entry")
    return None


def report_json(results: list[CheckResult]) -> str:
    """Canonical JSON rendering: a list of check objects, key-sorted."""
    return json.dumps([r.as_dict() for r in results], indent=2, sort_keys=True)
