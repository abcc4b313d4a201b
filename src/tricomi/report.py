"""Verification report record and its JSON-lines / CSV serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

__all__ = ["VerificationReport", "reports_to_jsonl", "reports_to_csv", "fmt", "csv_table"]


def fmt(v) -> str:
    """Deterministic rendering: floats at 17 significant digits."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def csv_table(header, rows) -> str:
    """CSV text: the header line, then one line per row of values, each
    rendered by `fmt` and None as an empty field."""
    lines = [",".join(header)]
    lines.extend(",".join("" if v is None else fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one bound/identity check.

    worst_margin is signed: >= 0 means the inequality held everywhere on the
    grid; passed is equivalent to worst_margin >= -tolerance, with the
    tolerance recorded in notes.
    """

    claim_id: str
    x0: float
    grid_size: int
    worst_margin: float
    worst_location: float
    passed: bool
    notes: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        d = self.to_dict()
        for k in ("x0", "worst_margin", "worst_location"):
            d[k] = float(d[k])
        d["passed"] = bool(d["passed"])     # a numpy.bool_ would dump as 1.0
        return json.dumps(d, sort_keys=True, default=float)


def reports_to_jsonl(reports) -> str:
    return "".join(r.to_json() + "\n" for r in reports)


def reports_to_csv(reports) -> str:
    return csv_table(("claim_id", "x0", "worst_margin", "passed"),
                     ((r.claim_id, float(r.x0), float(r.worst_margin), bool(r.passed))
                      for r in reports))
