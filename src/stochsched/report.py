"""Structured results for certificate and bound checks, and their output.

A `Report` is plain data, and `render` writes it in one of `FORMATS`:
human text, a flat CSV table, or JSON mirroring the Report structure,
written in one pass with the bytes `json.dumps(..., indent=2)` gives.
`exact_text` spells an exact rational in every output.  The bytes are
a pure function of the report.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

__all__ = ["FORMATS", "Scalar", "Violation", "Report", "exact_text", "render"]

FORMATS = ("human", "csv", "json")

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


# -------------------------------------------------------------------- rendering

def _human_value(value) -> str:
    if isinstance(value, Fraction):
        text = exact_text(value)
        if value.denominator == 1:
            return text
        try:
            return f"{text} ({float(value):.6g})"
        except OverflowError:  # beyond float range: the exact value alone
            return text
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _csv_value(value) -> str:
    if isinstance(value, Fraction):
        return exact_text(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _render_human(report: Report) -> str:
    lines = [f"{report.name}: {'PASS' if report.passed else 'FAIL'}"]
    for key, value in report.metrics.items():
        lines.append(f"  {key}: {_human_value(value)}")
    if report.min_slack is not None:
        lines.append(f"  min_slack: {_human_value(report.min_slack)}")
    for violation in report.violations[:5]:
        lines.append(f"  violated {violation.constraint}: "
                     f"{_human_value(violation.lhs)} > {_human_value(violation.rhs)}")
    if report.checks:
        lines.append("  checks:")
        for child in report.checks:
            mark = "PASS" if child.passed else "FAIL"
            extras = []
            if child.min_slack is not None:
                extras.append(f"min_slack={_human_value(child.min_slack)}")
            if child.violations:
                extras.append(f"violations={len(child.violations)}")
            suffix = f" ({', '.join(extras)})" if extras else ""
            lines.append(f"    [{mark}] {child.name}{suffix}")
            for key, value in child.metrics.items():
                lines.append(f"        {key}: {_human_value(value)}")
    if report.rows:
        columns = list(report.rows[0])
        table = [columns] + [[_human_value(row[c]) for c in columns] for row in report.rows]
        widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
        for line in table:
            lines.append(("  " + "  ".join(v.ljust(w) for v, w in zip(line, widths))).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(report: Report) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if report.rows:
        columns = list(report.rows[0])
        writer.writerow(columns)
        writer.writerows([_csv_value(row[c]) for c in columns] for row in report.rows)
    else:
        writer.writerow(["key", "value"])
        writer.writerow(["passed", _csv_value(report.passed)])
        writer.writerows([key, _csv_value(value)] for key, value in report.metrics.items())
    return buffer.getvalue()


_json_string = json.encoder.encode_basestring_ascii


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


# the scalar classes a report holds, each with its JSON text; a Fraction
# is its exact 'p/q' string
_JSON_SCALARS = {
    str: _json_string,
    Fraction: lambda value: f'"{exact_text(value)}"',
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    type(None): lambda value: "null",
    float: _json_float,
}


def _write_object(items, out: list, pad: str) -> None:
    """(key text, value) pairs as a JSON object, its entries one level
    deeper than `pad`, a newline and the enclosing indent."""
    inner = pad + "  "
    opener = "{"
    for key, value in items:
        scalar = _JSON_SCALARS.get(value.__class__)
        if scalar is not None:
            out.append(f"{opener}{inner}{key}: {scalar(value)}")
        else:
            out.append(f"{opener}{inner}{key}: ")
            _write_json(value, out, inner)
        opener = ","
    out.append("{}" if opener == "{" else pad + "}")


def _write_json(value, out: list, pad: str) -> None:
    """Append `value` as `json.dumps(..., indent=2)` spells it, after the
    report pieces are converted as README's JSON section describes: a
    Report or Violation is an object, a rational its 'p/q' text, a tuple
    a list, a mapping an object with `str` keys."""
    scalar = _JSON_SCALARS.get(value.__class__)
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, Report):
        metrics = value.metrics
        if value.checks or value.rows:  # the last keys inside "metrics"
            metrics = dict(metrics)
            if value.checks:
                metrics["checks"] = value.checks
            if value.rows:
                metrics["rows"] = value.rows
        _write_object((('"name"', value.name), ('"passed"', value.passed), ('"metrics"', metrics),
                       ('"violations"', value.violations), ('"min_slack"', value.min_slack)),
                      out, pad)
    elif isinstance(value, Violation):
        _write_object((('"constraint"', value.constraint), ('"lhs"', value.lhs),
                       ('"rhs"', value.rhs), ('"slack"', value.slack)), out, pad)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        opener = "["
        for item in value:
            out.append(opener + inner)
            opener = ","
            _write_json(item, out, inner)
        out.append(pad + "]")
    elif isinstance(value, Mapping):
        _write_object([(_json_string(str(k)), v) for k, v in value.items()], out, pad)
    else:  # a subclass, such as an IntEnum, is written as its scalar base
        base = next((c for c in value.__class__.__mro__ if c in _JSON_SCALARS), None)
        if base is None:
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
        out.append(_JSON_SCALARS[base](value))


def _render_json(report: Report) -> str:
    out: list[str] = []
    _write_json(report, out, "\n")
    out.append("\n")
    return "".join(out)


def render(report: Report, fmt: str) -> str:
    if fmt == "human":
        return _render_human(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "json":
        return _render_json(report)
    raise ValueError(f"format must be one of {FORMATS}")
