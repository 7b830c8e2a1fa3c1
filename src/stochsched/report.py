"""Structured results for certificate and bound checks.

A `Report` is plain data that `cli.render` writes as human text, CSV
or JSON.  `exact_text` spells an exact rational in every output.
"""
from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

__all__ = ["Scalar", "Violation", "Report", "exact_text"]

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


def exact_text(value: Fraction) -> str:
    """`str(value)`; past Python's int-to-text digit limit, a ValueError
    in the program's own words."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(f"a result needs more than {sys.get_int_max_str_digits()} digits "
                         "to print exactly") from None
