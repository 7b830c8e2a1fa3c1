"""Dual certificates as records: their `CERT v1` text and their checker.

A `DualCertificate` is a pair of tables: `alpha` holds the score each
job was accepted at, `beta` the weight still unfinished at each integer
slot of a reference schedule.  Scaled down by the certificate's divisor
pair, the tables satisfy the pricing constraints of the time-indexed
dual, so their objective lower-bounds the LP optimum.  The kind (`list`,
`speed` or `online`, each built by `dualfit`) fixes that pair, `scale`,
and `parse_certificate` holds a text to it; it reads alpha and beta
with `core.rational_table`, one key and two keys a row.

All arithmetic is exact.  `verify_certificate` evaluates one integer
per run of equal beta, not one row per slot, so any table of
nonnegative values works, monotone or not; the three pricing rows are
written out once, as integers, in `_pricing_coefficients`.

This module imports only `core`, `errors` and `report`, so a process
that reads and judges a certificate loads none of the code that built
it: no greedy, LP, oracle or CLI module.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .core import Instance, rational_table, read_format, strict_fraction
from .errors import SchemaError
from .report import Report, Violation

__all__ = [
    "KINDS",
    "DualCertificate",
    "verify_certificate",
    "serialize_certificate",
    "parse_certificate",
]

KINDS = ("list", "speed", "online")


def _exact_sum(values) -> Fraction:
    """Sum of rationals as one integer sum over their lcm."""
    values = list(values)
    scale = math.lcm(*[v.denominator for v in values])
    return Fraction(sum([v.numerator * (scale // v.denominator) for v in values]), scale)


_ONE, _THREE = Fraction(1), Fraction(3)
_LIST_SCALE = (Fraction(2), Fraction(2))


@dataclass(frozen=True)
class DualCertificate:
    kind: str
    f: Fraction
    alpha: dict[int, Fraction]
    beta: dict[tuple[int, int], Fraction]

    def __post_init__(self):
        kind, f = self.kind, self.f
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        if any(v.numerator < 0 for v in self.alpha.values()):
            raise ValueError("alpha values must be nonnegative")
        if any(v.numerator < 0 for v in self.beta.values()):
            raise ValueError("beta values must be nonnegative")
        # the verifier's run argument and the scale need a positive speed
        if kind != "list" and f.numerator <= 0:
            raise ValueError(f"{kind} certificates need f > 0, got {f}")
        # not fields: equality and repr read the tables alone.  `scale`:
        # divide alpha by scale[0] and beta by scale[1] to get the point
        # that is feasible for the corresponding dual LP
        object.__setattr__(self, "scale", _LIST_SCALE if kind == "list" else
                           (_ONE, f) if kind == "speed" else (_THREE, 3 * f))
        object.__setattr__(self, "alpha_sum", _exact_sum(self.alpha.values()))
        object.__setattr__(self, "beta_sum", _exact_sum(self.beta.values()))

    def beta_at(self, machine: int, slot: int) -> Fraction:
        return self.beta.get((machine, slot), Fraction(0))

    def objective(self) -> Fraction:
        """Value of the scaled-down point in the dual objective."""
        return self.alpha_sum / self.scale[0] - self.beta_sum / self.scale[1]


def _pricing_coefficients(cert: DualCertificate) -> tuple[int, int, int, int, int, int]:
    """The kind's pricing row for one job on one machine at slot s, with
    a = alpha, b = beta at s, w the weight, mean the expected processing
    time and f = p/q:

      list    a/mean    <= b   + w*(s/mean + 1)
      speed   a/mean    <= b/f + w*(s/mean + 1/2)
      online  f*a/mean  <= b   + 3*f*w*((s + 1/2)/mean + 1/2)

    Returns (u, v, x, y, z, g): the left side is z*a/(g*mean), and the
    slack, right side minus left, times g*mean is
    u*mean*b + v*w*s + x*w*mean + y*w - z*a.  u, v and g are positive
    for f > 0."""
    if cert.kind == "list":
        return 1, 1, 1, 0, 1, 1
    p, q = cert.f.numerator, cert.f.denominator
    if cert.kind == "speed":
        return 2 * q, 2 * p, p, 0, 2 * p, 2 * p
    return 2 * q, 6 * p, 3 * p, 3 * p, 2 * p, 2 * q


def _beta_runs(beta: Mapping[tuple[int, int], Fraction]
               ) -> dict[int, tuple[int, list[int], list[int]]]:
    """Per machine with a positive entry: (scale, starts, levels).  Run k
    covers slots starts[k] to starts[k + 1] - 1, where beta is
    levels[k] / scale; starts[0] is 0, and the last run, of level 0,
    starts one past the last positive entry and never ends.  Negative
    slots are never checked, so they are left out."""
    entries: dict[int, list[tuple[int, Fraction]]] = {}
    for (machine, s), value in beta.items():
        if value.numerator > 0 and s >= 0:
            entries.setdefault(machine, []).append((s, value))
    runs = {}
    for machine, rows in entries.items():
        rows.sort(key=lambda row: row[0])
        scale = math.lcm(*[value.denominator for _, value in rows])
        points = []
        prev = -1
        for s, value in rows:
            if s > prev + 1:
                points.append((prev + 1, 0))  # a gap is a run of zeros
            points.append((s, value.numerator * (scale // value.denominator)))
            prev = s
        points.append((prev + 1, 0))
        starts: list[int] = []
        levels: list[int] = []
        for s, level in points:
            if not levels or levels[-1] != level:
                starts.append(s)
                levels.append(level)
        runs[machine] = (scale, starts, levels)
    return runs


_ZERO_RUNS = (1, [0], [0])  # a machine without a positive beta entry


def verify_certificate(inst: Instance, cert: DualCertificate) -> Report:
    """Check every pricing inequality the certificate must satisfy.

    Slots run from the job's release (online kind) or zero up to one
    past the machine's last nonzero beta entry; beyond that beta is zero
    and the right side only grows with s, so the range is complete, and
    `constraints_checked` counts its slots.  The range is not walked
    slot by slot.  For one job on one machine, multiplying a row's slack
    by one positive integer gives c0 + cs*s + cb*level(s), where
    level(s) is beta as an integer over the machine's lcm and cs, cb >
    0.  On a run of equal beta the slack therefore rises with s, so its
    minimum is at the run's first slot in range, and only those slots
    are evaluated, in integers.  `min_slack` is the exact minimum.
    Where a run starts negative, its violating slots are a prefix of
    the run, found in closed form and listed in (job, machine, slot)
    order with each row's two sides read back from its integer slack.
    `alpha` must price exactly the instance's jobs; beta rows on other
    machines only lower the objective, so they are allowed.
    """
    ids = {job.id for job in inst.jobs}
    if cert.alpha.keys() != ids:
        raise ValueError(f"alpha must price exactly the instance's jobs: missing "
                         f"{sorted(ids - cert.alpha.keys())}, extra "
                         f"{sorted(cert.alpha.keys() - ids)}")
    runs = _beta_runs(cert.beta)
    u, v, x, y, z, g = _pricing_coefficients(cert)
    online = cert.kind == "online"
    violations = []
    low_num: Optional[int] = None
    low_den = 1
    checked = 0
    for job in inst.jobs:
        lo = job.release if online else 0
        wn, wd = job.weight.numerator, job.weight.denominator
        alpha = cert.alpha[job.id]
        an, ad = alpha.numerator, alpha.denominator
        for machine in job.permitted:
            scale, starts, levels = runs.get(machine, _ZERO_RUNS)
            mean = job.dist(machine).mean
            mn, md = mean.numerator, mean.denominator
            hi = max(starts[-1], lo)
            checked += hi - lo + 1
            # slack(s) = (c0 + cs*s + cb*level(s)) / den: the kind's
            # row times mean*g*md*scale*wd*ad
            cb = u * mn * wd * ad
            cs = v * wn * md * scale * ad
            c0 = scale * (wn * ad * (x * mn + y * md) - z * an * md * wd)
            den = g * mn * scale * wd * ad
            first = bisect_right(starts, lo) - 1
            slots = [lo, *starts[first + 1:]]
            values = [c0 + cs * s + cb * level for s, level in zip(slots, levels[first:])]
            low = min(values)
            if low_num is None or low * low_den < low_num * den:
                low_num, low_den = low, den
            if low >= 0:
                continue
            lhs = z * alpha / (g * mean)
            for k, value in enumerate(values):
                if value >= 0:
                    continue
                start = slots[k]
                end = slots[k + 1] - 1 if k + 1 < len(slots) else hi
                # the run's last negative slot: the largest s with
                # cs*s + (c0 + cb*level) < 0
                last = min(end, (cs * start - value - 1) // cs)
                for s in range(start, last + 1):
                    rhs = lhs + Fraction(value + cs * (s - start), den)
                    violations.append(Violation(f"price_{machine}_{job.id}_{s}", lhs, rhs))
    return Report(
        name=f"feasibility[{cert.kind}]",
        passed=not violations,
        metrics={
            "kind": cert.kind,
            "f": cert.f,
            "alpha_sum": cert.alpha_sum,
            "beta_sum": cert.beta_sum,
            "constraints_checked": checked,
        },
        violations=tuple(violations),
        min_slack=None if low_num is None else Fraction(low_num, low_den),
    )


def serialize_certificate(cert: DualCertificate) -> str:
    """Canonical one-line JSON under the versioned `CERT v1` schema."""
    payload = {
        "format": "CERT v1",
        "kind": cert.kind,
        "f": str(cert.f),
        "scale": [str(cert.scale[0]), str(cert.scale[1])],
        "alpha": [[job_id, str(value)] for job_id, value in sorted(cert.alpha.items())],
        "beta": [[machine, slot, str(value)]
                 for (machine, slot), value in sorted(cert.beta.items())],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def parse_certificate(text: str) -> DualCertificate:
    """Strict reader for `CERT v1`: rationals are integers or 'p/q'
    strings, never floats or bools, and keys are integers.  The scale
    is the kind's own pair: list (2, 2), speed (1, f), online (3, 3f)."""
    payload = read_format(text, "CERT v1", ("kind", "f", "scale", "alpha", "beta"))
    try:
        kind = payload["kind"]
        f = strict_fraction(payload["f"], "f")
        entries = payload["scale"]
        if not isinstance(entries, list) or len(entries) != 2:
            raise SchemaError(f"scale must list exactly two rationals, got {entries!r}")
        scale = (strict_fraction(entries[0], "scale"), strict_fraction(entries[1], "scale"))
        alpha = rational_table(payload["alpha"], 1, "alpha")
        beta = rational_table(payload["beta"], 2, "beta")
    except KeyError as exc:
        raise SchemaError(f"malformed certificate: missing field {exc}") from None
    try:
        cert = DualCertificate(kind, f, alpha, beta)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    if scale != cert.scale:
        raise SchemaError(f"a {cert.kind} certificate's scale is fixed by its kind: "
                          "list [2, 2], speed [1, f], online [3, 3f]")
    return cert
