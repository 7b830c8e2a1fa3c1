"""Online-time greedy with binding commitments.

Jobs arrive at release dates.  Each is assigned on arrival to the
machine with the smallest expected increase, where the increase charges
twice the modified release max{f*r_j, E[P_ij]}.  Machines serve their
queue by priority ratio; before processing a job the machine sits idle
for the job's expected duration, and the commitment is never revoked.

All exact simulation here runs on the speed-f clock (durations divided
by f); the wall-clock run of the deployed policy is that trace times f,
and `simulate_wall_clock` computes it independently so the scaling can
be checked rather than assumed.
"""
from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .core import FractionLike, Instance, as_fraction, machine_order
from .errors import ForbiddenPairError
from .greedy_list import Assignment, _dispatch

__all__ = [
    "Realization",
    "JobTrace",
    "ScheduleTrace",
    "CostEstimate",
    "modified_release",
    "sped_release",
    "expected_increase",
    "assign",
    "assign_with_increases",
    "draw_realization",
    "simulate",
    "simulate_wall_clock",
    "deterministic_schedule",
    "deterministic_cost",
    "estimate_cost",
]

MODES = ("forced-idle", "max-proc")


def _check_f(f: FractionLike) -> Fraction:
    f = as_fraction(f)
    if f < 1:
        raise ValueError(f"speed factor must be >= 1, got {f}")
    return f


def modified_release(inst: Instance, job_id: int, machine: int, f: FractionLike) -> Fraction:
    """Wall-clock earliest start max{f*r_j, E[P_ij]} of the pair."""
    f = _check_f(f)
    job = inst.job(job_id)
    return max(f * job.release, job.dist(machine).mean)


def sped_release(inst: Instance, job_id: int, machine: int, f: FractionLike) -> Fraction:
    """Same deadline on the speed-f clock: max{r_j, E[P_ij]/f}."""
    f = _check_f(f)
    job = inst.job(job_id)
    return max(Fraction(job.release), job.dist(machine).mean / f)


def expected_increase(inst: Instance, assigned: Mapping[int, int], job_id: int,
                      machine: int, f: FractionLike) -> Fraction:
    """Assignment score of `job_id` on `machine` at its arrival.

    Like the list version but the job's own completion is charged from
    twice its modified release instead of from zero.
    """
    f = _check_f(f)
    job = inst.job(job_id)
    if not job.allows(machine):
        raise ForbiddenPairError(f"job {job_id} cannot run on machine {machine}")
    mean = job.dist(machine).mean
    ratio = job.weight / mean
    work_before = mean
    weight_after = Fraction(0)
    for other_id, target in assigned.items():
        if target != machine or other_id == job_id:
            continue
        other = inst.job(other_id)
        other_ratio = inst.ratio(machine, other_id)
        if other_ratio > ratio or (other_ratio == ratio and other_id <= job_id):
            if other_id <= job_id:
                work_before += other.dist(machine).mean
        elif other_id < job_id:
            weight_after += other.weight
    release = max(f * job.release, mean)
    return job.weight * (2 * release + work_before) + mean * weight_after


def assign(inst: Instance, f: FractionLike) -> Assignment:
    """Assign jobs in arrival order by smallest expected increase.

    The score is homogeneous of degree one in the speed: dividing all
    durations by f scales every score by 1/f, so the chosen machines are
    the same on the original and the speed-f instance.
    """
    return _dispatch(inst, _check_f(f))[0]


def assign_with_increases(inst: Instance, f: FractionLike) -> tuple[Assignment, tuple[Fraction, ...]]:
    """Like `assign`, but also return each job's accepted score."""
    return _dispatch(inst, _check_f(f))


@dataclass(frozen=True)
class Realization:
    """One drawn processing time per permitted (job, machine) pair."""

    values: tuple[tuple[Optional[int], ...], ...]

    def value(self, job_id: int, machine: int) -> int:
        v = self.values[job_id - 1][machine - 1]
        if v is None:
            raise ForbiddenPairError(f"job {job_id} cannot run on machine {machine}")
        return v


def draw_realization(inst: Instance, rng: random.Random) -> Realization:
    rows = []
    for job in inst.jobs:
        rows.append(tuple(None if d is None else d.sample(rng) for d in job.proc))
    return Realization(tuple(rows))


@dataclass(frozen=True)
class JobTrace:
    job: int
    machine: int
    committed: Fraction   # machine reserved for the job; forced idle begins
    started: Fraction     # actual processing begins
    completed: Fraction

    def scaled(self, factor: Fraction) -> "JobTrace":
        return JobTrace(self.job, self.machine, self.committed * factor,
                        self.started * factor, self.completed * factor)


@dataclass(frozen=True)
class ScheduleTrace:
    jobs: tuple[JobTrace, ...]   # in job-id order

    def trace(self, job_id: int) -> JobTrace:
        return self.jobs[job_id - 1]

    def cost(self, inst: Instance) -> Fraction:
        return sum((inst.job(t.job).weight * t.completed for t in self.jobs), Fraction(0))

    def scaled(self, factor: FractionLike) -> "ScheduleTrace":
        factor = as_fraction(factor)
        return ScheduleTrace(tuple(t.scaled(factor) for t in self.jobs))

    def machine_segments(self, machine: int) -> tuple[tuple[str, Fraction, Fraction, Optional[int]], ...]:
        """Timeline of one machine as (kind, start, end, job) segments,
        kind in {'sleep', 'held', 'proc'}; 'held' is the forced idle."""
        mine = sorted((t for t in self.jobs if t.machine == machine),
                      key=lambda t: t.committed)
        segments = []
        clock = Fraction(0)
        for t in mine:
            if t.committed > clock:
                segments.append(("sleep", clock, t.committed, None))
            if t.started > t.committed:
                segments.append(("held", t.committed, t.started, t.job))
            segments.append(("proc", t.started, t.completed, t.job))
            clock = t.completed
        return tuple(segments)


def _rank_jobs(inst: Instance, assignment: Assignment) -> dict[int, list[int]]:
    """Per machine, assigned job ids sorted by serving priority."""
    per_machine: dict[int, list[int]] = {}
    for job in inst.jobs:
        per_machine.setdefault(assignment.machine_of(job.id), []).append(job.id)
    return {machine: machine_order(inst, machine, ids) for machine, ids in per_machine.items()}


def _run_machine(entries):
    """Serve (release, rank, job, hold, proc) tuples on one machine.

    The machine picks the best-ranked released job, holds it for `hold`,
    processes it for `proc`, and only then looks again; with nothing
    released it sleeps until the next release.  Works for Fraction and
    float times alike.
    """
    order = sorted(entries)
    heap: list = []
    done = []
    clock = 0
    idx = 0
    n = len(order)
    while idx < n or heap:
        while idx < n and order[idx][0] <= clock:
            release, rank, job_id, hold, proc = order[idx]
            heapq.heappush(heap, (rank, job_id, hold, proc))
            idx += 1
        if not heap:
            clock = order[idx][0]
            continue
        _, job_id, hold, proc = heapq.heappop(heap)
        committed = clock
        started = committed + hold
        clock = started + proc
        done.append((job_id, committed, started, clock))
    return done


def _trace_from(inst: Instance, assignment: Assignment, per_machine_entries) -> ScheduleTrace:
    rows: list[Optional[JobTrace]] = [None] * inst.n
    for machine, entries in per_machine_entries.items():
        for job_id, committed, started, completed in _run_machine(entries):
            rows[job_id - 1] = JobTrace(job_id, machine, Fraction(committed),
                                        Fraction(started), Fraction(completed))
    return ScheduleTrace(tuple(rows))


def _sped_trace(inst: Instance, assignment: Assignment, f: Fraction,
                timing: Callable[[int, int, Fraction], tuple[Fraction, Fraction]]) -> ScheduleTrace:
    """Trace on the speed-f clock: each job is released at
    max{r_j, E[P_ij]/f} and served in priority order, with the
    (hold, proc) pair that `timing(job_id, machine, mean)` returns."""
    entries = {}
    for machine, ids in _rank_jobs(inst, assignment).items():
        rows = []
        for rank, job_id in enumerate(ids):
            job = inst.job(job_id)
            mean = job.dist(machine).mean
            hold, proc = timing(job_id, machine, mean)
            rows.append((max(Fraction(job.release), mean / f), rank, job_id, hold, proc))
        entries[machine] = rows
    return _trace_from(inst, assignment, entries)


def simulate(inst: Instance, assignment: Assignment, realization: Realization,
             f: FractionLike, mode: str = "forced-idle") -> ScheduleTrace:
    """Trace of the policy on the speed-f clock for one realization."""
    f = _check_f(f)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")

    def timing(job_id: int, machine: int, mean: Fraction) -> tuple[Fraction, Fraction]:
        drawn = Fraction(realization.value(job_id, machine))
        if mode == "forced-idle":
            return mean / f, drawn / f
        return Fraction(0), max(drawn, mean) / f

    return _sped_trace(inst, assignment, f, timing)


def simulate_wall_clock(inst: Instance, assignment: Assignment, realization: Realization,
                        f: FractionLike, mode: str = "forced-idle") -> ScheduleTrace:
    """Trace of the deployed policy on the original clock: releases at
    max{f*r_j, E[P_ij]}, full expected-duration hold, drawn durations."""
    f = _check_f(f)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    ranked = _rank_jobs(inst, assignment)
    entries = {}
    for machine, ids in ranked.items():
        rows = []
        for rank, job_id in enumerate(ids):
            job = inst.job(job_id)
            mean = job.dist(machine).mean
            drawn = Fraction(realization.value(job_id, machine))
            release = max(f * job.release, mean)
            if mode == "forced-idle":
                hold, proc = mean, drawn
            else:
                hold, proc = Fraction(0), max(drawn, mean)
            rows.append((release, rank, job_id, hold, proc))
        entries[machine] = rows
    return _trace_from(inst, assignment, entries)


def deterministic_schedule(inst: Instance, f: FractionLike,
                           assignment: Optional[Assignment] = None) -> tuple[ScheduleTrace, Fraction]:
    """Speed-f trace with durations pinned at their means and no holds.

    Same assignment and serving order as the stochastic run; this is the
    deterministic yardstick the dual certificate reads its table from.
    """
    f = _check_f(f)
    if assignment is None:
        assignment = assign(inst, f)
    trace = _sped_trace(inst, assignment, f,
                        lambda job_id, machine, mean: (Fraction(0), mean / f))
    return trace, trace.cost(inst)


def deterministic_cost(inst: Instance, f: FractionLike) -> Fraction:
    return deterministic_schedule(inst, f)[1]


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    ci95: float
    samples: int
    per_job_mean: tuple[float, ...]
    per_job_ci95: tuple[float, ...]


def _mean_ci(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = max(0.0, (total_sq - total * total / n) / (n - 1))
    return mean, 1.96 * math.sqrt(var / n)


def estimate_cost(inst: Instance, f: FractionLike, samples: int, seed: int,
                  mode: str = "forced-idle") -> CostEstimate:
    """Monte Carlo mean and 95% interval of the wall-clock policy cost.

    Each replication draws from its own child generator keyed by
    (seed, index), so results are reproducible for a fixed (seed,
    samples).  Event times inside a replication are floats; serving
    priority still uses exact ratios.
    """
    f = _check_f(f)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if samples < 1:
        raise ValueError("need at least one replication")
    assignment = assign(inst, f)
    ranked = _rank_jobs(inst, assignment)
    # static per-machine layout; only `proc` varies across replications
    layout = []
    forced = mode == "forced-idle"
    for machine, ids in ranked.items():
        for rank, job_id in enumerate(ids):
            job = inst.job(job_id)
            dist = job.dist(machine)
            release = float(max(f * job.release, dist.mean))
            hold = float(dist.mean) if forced else 0.0
            layout.append((machine, rank, job_id, release, hold, dist))
    weights = [float(job.weight) for job in inst.jobs]

    totals = []
    per_job = []
    for rep in range(samples):
        rng = random.Random(f"{seed}:{rep}")
        per_machine: dict[int, list] = {}
        # draw in fixed (machine-block) order for reproducibility
        for machine, rank, job_id, release, hold, dist in layout:
            drawn = float(dist.sample(rng))
            proc = drawn if forced else max(drawn, float(dist.mean))
            per_machine.setdefault(machine, []).append((release, rank, job_id, hold, proc))
        completions = [0.0] * inst.n
        total = 0.0
        for machine, entries in per_machine.items():
            for job_id, _, _, end in _run_machine(entries):
                completions[job_id - 1] = end
                total += weights[job_id - 1] * end
        totals.append(total)
        per_job.append(completions)

    total = sum(totals)
    total_sq = sum(t * t for t in totals)
    mean, ci = _mean_ci(total, total_sq, samples)
    job_means = []
    job_cis = []
    for j in range(inst.n):
        s = sum(row[j] for row in per_job)
        ssq = sum(row[j] * row[j] for row in per_job)
        jm, jc = _mean_ci(s, ssq, samples)
        job_means.append(jm)
        job_cis.append(jc)
    return CostEstimate(mean, ci, samples, tuple(job_means), tuple(job_cis))
