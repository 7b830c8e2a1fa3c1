"""Structured results for certificate and bound checks."""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

__all__ = ["Scalar", "Violation", "Report", "jsonable"]

Scalar = Union[Fraction, float, int, bool, str, None]

Number = Union[Fraction, float]


@dataclass(frozen=True)
class Violation:
    """One broken inequality: where, and by how much.  Values are exact
    rationals from symbolic checks or floats from Monte Carlo ones."""

    constraint: str
    lhs: Number
    rhs: Number

    @property
    def slack(self) -> Number:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class Report:
    """Verdict of one check: named scalar metrics, the inequalities it
    found broken, the sub-checks it is made of, and a table of rows."""

    name: str
    passed: bool
    metrics: Mapping[str, Scalar] = field(default_factory=dict)
    violations: tuple[Violation, ...] = ()
    min_slack: Optional[Number] = None
    checks: tuple[Report, ...] = ()
    rows: tuple[Mapping[str, Scalar], ...] = ()


def jsonable(value):
    """Recursively convert report pieces to JSON-safe primitives;
    rationals become canonical 'p/q' strings so nothing is rounded.
    Sub-checks, then rows, are the last keys inside "metrics", present
    only when nonempty."""
    if isinstance(value, Report):
        metrics = {k: jsonable(v) for k, v in value.metrics.items()}
        if value.checks:
            metrics["checks"] = jsonable(value.checks)
        if value.rows:
            metrics["rows"] = jsonable(value.rows)
        return {
            "name": value.name,
            "passed": value.passed,
            "metrics": metrics,
            "violations": [jsonable(v) for v in value.violations],
            "min_slack": jsonable(value.min_slack),
        }
    if isinstance(value, Violation):
        return {"constraint": value.constraint, "lhs": jsonable(value.lhs),
                "rhs": jsonable(value.rhs), "slack": jsonable(value.slack)}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value
