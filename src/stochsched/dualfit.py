"""Dual certificates read off greedy runs, and their feasibility checks.

Each builder reads a greedy run into a `certify.DualCertificate`, whose
objective lower-bounds the LP optimum; that turns a greedy trace into a
machine-checkable performance proof.  `lp` writes no model of that
dual: the LP's own optimal dual point is read off the multipliers
`lp.solve_lp` returns with the primal optimum.

Three kinds:

  list    reference schedule = expected-duration run of the list greedy
  speed   same tables read on a clock running f times faster (f >= 2)
  online  scores from the release-aware greedy, schedule from its
          deterministic speed-f run

All arithmetic is exact.  The beta tables are built in one sweep per
machine, comparing each slot with integer completions: the list and
speed tables read `core.list_schedule`, and the online builder scales
its trace once, reading each completion as an integer over the
deterministic schedule's own clock, K*p for the mean scale K and
f = p/q, with no lcm taken.

Each check builds the certificate it judges, judges it with
`certify.verify_certificate` and solves no LP; `cli` compares the
bounds with the LP optimum.  The list and speed checks read the
`ListRun` they are handed, so one subcommand runs the greedy and the
schedule once.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from . import greedy_list, greedy_time
from .certify import DualCertificate, verify_certificate
from .core import FractionLike, Instance, Schedule, as_fraction, list_schedule, schedule_cost
from .errors import RequiresFGeq2Error
from .report import Report

__all__ = [
    "ListRun",
    "list_run",
    "build_list_certificate",
    "build_speed_certificate",
    "build_online_certificate",
    "check_list_feasibility",
    "check_speedf",
    "check_online",
    "perturbed",
]


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
