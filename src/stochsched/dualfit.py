"""Dual certificates read off greedy runs, and their feasibility checks.

A certificate is a pair of tables: `alpha` holds the score each job was
accepted at, `beta` the weight still unfinished at each integer slot of
a reference schedule.  Scaled down by the certificate's divisor pair,
the tables satisfy the pricing constraints of the time-indexed dual, so
their objective lower-bounds the LP optimum; that turns a greedy trace
into a machine-checkable performance proof.  `lp` writes no model of
that dual: the LP's own optimal dual point is read off the multipliers
`lp.solve_lp` returns with the primal optimum.

Three kinds:

  list    reference schedule = expected-duration run of the list greedy
  speed   same tables read on a clock running f times faster (f >= 2)
  online  scores from the release-aware greedy, schedule from its
          deterministic speed-f run

All arithmetic is exact.  The verifier covers every slot from the job's
release (online) or zero up to one past the machine's last nonzero beta
entry; beyond that beta is zero and every slack only grows.  It does
not walk those slots one by one.  Each machine's beta table is cut into
runs of equal value, and for one job on one machine the slack at slot s
is c0 + cs*s + cb*beta(s) with cs, cb > 0 after multiplying by one
positive integer.  So on each run the slack rises with s and its
minimum is at the run's first slot in range: the check evaluates one
integer per run, and any table of nonnegative values works, monotone or
not.  The three pricing rows are written out once, in
`_pricing_coefficients`, which gives each as those integers; a violated
row's two sides are read back from its integer slack.  The beta tables
are built in one sweep per machine, comparing each slot with integer
completions: the list and speed tables read `core.list_schedule`, and
the online builder scales its trace once, reading each completion as an
integer over the deterministic schedule's own clock, K*p for the mean
scale K and f = p/q, with no lcm taken.

Each check builds the certificate it judges and solves no LP; `cli`
compares the bounds with the LP optimum.  The list and speed checks
read the `ListRun` they are handed, so one subcommand runs the greedy
and the schedule once.  A certificate's kind fixes its divisor pair,
`scale`, set once when the certificate is built, and
`parse_certificate` holds a text to it; it reads alpha and
beta with `core.rational_table`, one key and two keys a row.
"""
from __future__ import annotations

import dataclasses
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from . import greedy_list, greedy_time
from .core import (FractionLike, Instance, Schedule, as_fraction, list_schedule, rational_table,
                   read_format, schedule_cost, strict_fraction)
from .errors import RequiresFGeq2Error, SchemaError
from .report import Report, Violation

__all__ = [
    "KINDS",
    "DualCertificate",
    "ListRun",
    "list_run",
    "build_list_certificate",
    "build_speed_certificate",
    "build_online_certificate",
    "verify_certificate",
    "check_list_feasibility",
    "check_speedf",
    "check_online",
    "perturbed",
    "serialize_certificate",
    "parse_certificate",
]

KINDS = ("list", "speed", "online")


@dataclass(frozen=True)
class ListRun:
    """One run of the list greedy, its `core.list_schedule` and the
    schedule's cost.  Both come from the assignment alone, apart from
    the scores the certificate holds, so the identities between the two
    stay checks."""

    greedy: greedy_list.GreedyRun
    schedule: Schedule
    cost: Fraction


def list_run(inst: Instance) -> ListRun:
    greedy = greedy_list.assign(inst)
    schedule = list_schedule(inst, greedy.assignment.as_mapping())
    return ListRun(greedy, schedule, schedule_cost(inst, schedule))


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


def _beta_table(schedule: Schedule, time_scale: int, weight_scale: int,
                stretch: Fraction = Fraction(1)) -> dict[tuple[int, int], Fraction]:
    """beta[(machine, s)] = weight completing strictly after stretch*s,
    from `core.list_schedule` rows in any order, with weights over
    `weight_scale` and completions over `time_scale`.  One integer sweep
    per machine; slots with the same unfinished jobs share a `Fraction`."""
    step = stretch.numerator * time_scale
    beta: dict[tuple[int, int], Fraction] = {}
    for machine, rows in schedule.items():
        if not rows:
            continue
        # completion / time_scale > stretch * s  <=>  completion * q > step * s
        rows = sorted([(completion * stretch.denominator, weight)
                       for _, weight, completion in rows])
        unfinished = sum([weight for _, weight in rows])
        level = Fraction(unfinished, weight_scale)
        makespan = rows[-1][0]
        done = 0
        s = 0
        while step * s < makespan:
            if rows[done][0] <= step * s:
                while rows[done][0] <= step * s:
                    unfinished -= rows[done][1]
                    done += 1
                level = Fraction(unfinished, weight_scale)
            beta[(machine, s)] = level
            s += 1
    return beta


def _slot_cost(schedule: Schedule, time_scale: int, weight_scale: int) -> Fraction:
    """sum_j w_j ceil(C_j) over the rows of `schedule`, weights over
    `weight_scale` and completions over `time_scale`.  A beta table read
    off the schedule counts job j's weight at every slot s < C_j, so its
    sum must equal this."""
    total = sum([weight * -(-completion // time_scale)
                 for rows in schedule.values() for _, weight, completion in rows])
    return Fraction(total, weight_scale)


def build_list_certificate(inst: Instance, run: ListRun) -> DualCertificate:
    """Tables of the list greedy: accepted scores and the unfinished
    weight per slot of its expected-duration schedule.  Halving both
    gives a feasible dual point."""
    increases = run.greedy.increases
    alpha = {job.id: increases[job.id - 1] for job in inst.jobs}
    scaled = inst.scaled
    beta = _beta_table(run.schedule, scaled.mean_scale, scaled.weight_scale)
    return DualCertificate("list", Fraction(1), alpha, beta)


def build_speed_certificate(inst: Instance, f: FractionLike, run: ListRun) -> DualCertificate:
    """List-greedy tables reread on a clock running f times faster.

    Scores shrink by f; the unfinished-weight table is sampled at times
    f*s of the unsped schedule.  For f >= 2 the pair (alpha, beta/f) is
    dual feasible without any halving.
    """
    f = as_fraction(f)
    if f < 2:
        raise RequiresFGeq2Error(f"speed certificates need f >= 2, got {f}")
    increases = run.greedy.increases
    alpha = {job.id: increases[job.id - 1] / f for job in inst.jobs}
    scaled = inst.scaled
    beta = _beta_table(run.schedule, scaled.mean_scale, scaled.weight_scale, stretch=f)
    return DualCertificate("speed", f, alpha, beta)


def build_online_certificate(inst: Instance, f: FractionLike) -> DualCertificate:
    """Certificate of the release-aware greedy at speed f.

    alpha is each job's accepted score divided by f; beta counts, per
    integer slot, the weight of jobs assigned to the machine whose
    deterministic speed-f completion lies strictly later -- jobs not yet
    released at the slot included.  The feasible dual point is
    (alpha/3, beta/(3f)).
    """
    return _online_run(inst, f)[0]


def _online_run(inst: Instance, f: FractionLike) -> tuple[DualCertificate, Fraction, Fraction]:
    """The online certificate, the deterministic speed-f cost and that
    cost with each completion rounded up to an integer, read off one
    greedy run and its trace."""
    f = as_fraction(f)
    if f < 2:
        raise RequiresFGeq2Error(f"online certificates need f >= 2, got {f}")
    assignment, increases = greedy_time.assign_with_increases(inst, f)
    trace, det_cost = greedy_time.deterministic_schedule(inst, f, assignment)
    alpha = {job.id: increases[job.id - 1] / f for job in inst.jobs}
    # the trace's completions as integers over the kernel's own clock,
    # K*p for f = p/q, once
    scaled = inst.scaled
    time_scale = scaled.mean_scale * f.numerator
    schedule: Schedule = {}
    for row in trace.jobs:
        completed = row.completed
        schedule.setdefault(row.machine, []).append(
            (row.job, scaled.weights[row.job - 1],
             completed.numerator * (time_scale // completed.denominator)))
    beta = _beta_table(schedule, time_scale, scaled.weight_scale)
    return (DualCertificate("online", f, alpha, beta), det_cost,
            _slot_cost(schedule, time_scale, scaled.weight_scale))


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


def check_list_feasibility(inst: Instance, run: ListRun) -> Report:
    """Build and verify the list certificate of `run`, with the
    bookkeeping identities between its tables and the run's cost.

    Passing needs pricing feasibility and sum(beta) = sum_j w_j ceil(C_j)
    over the expected completions C_j of `run.schedule`, since beta
    counts job j's weight at every slot s < C_j.  That sum is the cost
    itself when every C_j is an integer; `beta_matches_alg` reports
    whether sum(beta) equals the cost, so it reads no whenever some C_j
    is fractional, and does not gate."""
    cert = build_list_certificate(inst, run)
    report = verify_certificate(inst, cert)
    scaled = inst.scaled
    slot_cost = _slot_cost(run.schedule, scaled.mean_scale, scaled.weight_scale)
    return dataclasses.replace(
        report, name="list-certificate", passed=report.passed and cert.beta_sum == slot_cost,
        metrics={**report.metrics, "alg_value": run.cost,
                 "alpha_matches_alg": cert.alpha_sum == run.cost,
                 "beta_matches_alg": cert.beta_sum == run.cost})


def check_speedf(inst: Instance, f: FractionLike, run: ListRun) -> Report:
    """Build and verify the speed-f certificate, f >= 2.

    Reports two objective values: the closed-form (f-1)/f^2 times the
    greedy cost, exact whenever every expected completion is a multiple
    of f, and the actual objective of the scaled feasible point, which
    is never larger and is the one weak duality applies to.
    """
    cert = build_speed_certificate(inst, f, run)
    report = verify_certificate(inst, cert)
    f, alg = cert.f, run.cost
    actual = cert.objective()
    formula = (f - 1) / (f * f) * alg
    return dataclasses.replace(report, name="speed-certificate", metrics={
        **report.metrics, "alg_value": alg, "objective_formula": formula,
        "objective_actual": actual, "objective_exact": formula == actual})


def check_online(inst: Instance, f: FractionLike) -> Report:
    """Build and verify the online certificate, f >= 2.

    Checks, all exact: pricing feasibility; the deterministic speed-f
    cost is at most sum(alpha); and sum(beta) equals sum_j w_j ceil(C_j)
    over the speed-f completions C_j, since beta counts job j's weight
    at every slot s < C_j.  That sum is the cost itself when every C_j
    is an integer, which `beta_matches_cost` reports but does not gate.
    `lower_bound` is the scaled point's objective, at most the online
    LP optimum by weak duality.  The certificate and the cost read one
    greedy run and one trace.
    """
    cert, det_cost, slot_cost = _online_run(inst, f)
    report = verify_certificate(inst, cert)
    cost_le_alpha = det_cost <= cert.alpha_sum
    beta_matches = cert.beta_sum == det_cost
    passed = report.passed and cost_le_alpha and cert.beta_sum == slot_cost
    return dataclasses.replace(
        report, name="online-certificate", passed=passed,
        metrics={**report.metrics, "det_cost": det_cost, "cost_le_alpha": cost_le_alpha,
                 "beta_matches_cost": beta_matches, "lower_bound": cert.objective()})


def perturbed(cert: DualCertificate, job_id: int, delta: FractionLike) -> DualCertificate:
    """Copy with one alpha entry shifted; for falsification tests."""
    alpha = dict(cert.alpha)
    alpha[job_id] = alpha[job_id] + as_fraction(delta)
    return dataclasses.replace(cert, alpha=alpha)


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
