"""Verification report record and its JSON-lines / CSV serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

__all__ = ["VerificationReport", "reports_to_jsonl", "reports_to_csv", "fmt"]


def fmt(v) -> str:
    """Deterministic rendering: floats at 17 significant digits."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


@dataclass
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
    lines = ["claim_id,x0,worst_margin,passed"]
    for r in reports:
        lines.append(
            f"{r.claim_id},{fmt(float(r.x0))},{fmt(float(r.worst_margin))},{fmt(bool(r.passed))}"
        )
    return "\n".join(lines) + "\n"
