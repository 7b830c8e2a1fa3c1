"""Online-time greedy with binding commitments.

Jobs arrive at release dates.  Each is assigned on arrival to the
machine with the smallest expected increase, where the increase charges
twice the modified release max{f*r_j, E[P_ij]}.  Machines serve their
queue by priority ratio; before processing a job the machine sits idle
for the job's expected duration, and the commitment is never revoked.

All exact simulation here runs on the speed-f clock (durations divided
by f); the wall-clock run of the deployed policy is that trace times f,
and `simulate_wall_clock` computes it independently so the scaling can
be checked rather than assumed.  Every trace is built by the one kernel
`_trace`.  `simulate` and `deterministic_schedule` run it on integers:
with f = p/q and K the instance's mean scale, a time t on the speed-f
clock is the integer t*K*p, so a release r is r*K*p, a mean m/K is m*q
and a drawn duration v is v*K*q.  `estimate_cost` serves the same
integers, read as wall-clock times over K*q.  `simulate_wall_clock`
stays on `Fraction`s.

Every trace and every Monte Carlo replication serves each machine in
the order of `core.list_schedule`, as `_layout` lays it out.
`expected_increase` is the list version's plus the job's own charge,
independent of the dispatch kernel it checks.  `deterministic_schedule`
and `estimate_cost` read the assignment they are handed, so a caller
runs the greedy once and shares it.
"""
from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

from . import greedy_list
from .core import FractionLike, Instance, Job, as_fraction, list_schedule
from .errors import ForbiddenPairError
from .greedy_list import Assignment, GreedyRun, _dispatch, _run

__all__ = [
    "Realization",
    "JobTrace",
    "ScheduleTrace",
    "CostEstimate",
    "modified_release",
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


def _check_f_and_mode(f: FractionLike, mode: str) -> Fraction:
    f = _check_f(f)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    return f


def modified_release(inst: Instance, job_id: int, machine: int, f: FractionLike) -> Fraction:
    """Wall-clock earliest start max{f*r_j, E[P_ij]} of the pair."""
    f = _check_f(f)
    job = inst.job(job_id)
    return max(f * job.release, job.dist(machine).mean)


def expected_increase(inst: Instance, assigned: Mapping[int, int], job_id: int,
                      machine: int, f: FractionLike) -> Fraction:
    """Assignment score of `job_id` on `machine` at its arrival.

    The list version's increase plus the job's own charge from twice its
    modified release: 2*w_j*max{f*r_j, E[P_ij]}.
    """
    f = _check_f(f)
    increase = greedy_list.expected_increase(inst, assigned, job_id, machine)
    return increase + 2 * inst.job(job_id).weight * modified_release(inst, job_id, machine, f)


def assign(inst: Instance, f: FractionLike) -> Assignment:
    """Assign jobs in arrival order by smallest expected increase.

    The score is homogeneous of degree one in the speed: dividing all
    durations by f scales every score by 1/f, so the chosen machines are
    the same on the original and the speed-f instance.  The kernel's
    machines are read alone, with no score built.
    """
    return Assignment(tuple(_dispatch(inst, _check_f(f))[0]))


def assign_with_increases(inst: Instance, f: FractionLike) -> GreedyRun:
    """Like `assign`, but also return each job's accepted score."""
    return _run(inst, _check_f(f))


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


def _run_machine(entries):
    """Serve (release, rank, job, hold, proc) tuples on one machine.

    The machine picks the best-ranked released job, holds it for `hold`,
    processes it for `proc`, and only then looks again; with nothing
    released it sleeps until the next release.  Works for int and
    Fraction times alike.
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


def _layout(inst: Instance, assignment: Assignment, timing: Callable[[Job, int, int], tuple]):
    """Each machine's queue in the order of `core.list_schedule`, as
    (machine, [(release, rank, job, hold, proc), ...]) with the triple
    that `timing(job, machine, mean)` returns, `mean` the pair's integer
    mean over `inst.scaled.mean_scale`."""
    jobs, means = inst.jobs, inst.scaled.means
    layout = []
    for machine, ranked in list_schedule(inst, assignment.as_mapping()).items():
        entries = []
        for rank, (job_id, _, _) in enumerate(ranked):
            job = jobs[job_id - 1]
            release, hold, proc = timing(job, machine, means[id(job.proc[machine - 1])])
            entries.append((release, rank, job_id, hold, proc))
        layout.append((machine, entries))
    return layout


def _trace(inst: Instance, assignment: Assignment, scale: int,
           timing: Callable[[Job, int, int], tuple]) -> tuple[ScheduleTrace, list]:
    """Serve the `_layout` of `timing` on each machine, times over
    `scale`: ints on an integer clock, or Fractions with scale 1.  Each
    `JobTrace` builds its three `Fraction`s at the end; the completions
    as `timing`'s numbers, in job-id order, come back with the trace."""
    rows: list[Optional[JobTrace]] = [None] * inst.n
    ends: list = [0] * inst.n
    for machine, entries in _layout(inst, assignment, timing):
        for job_id, committed, started, completed in _run_machine(entries):
            rows[job_id - 1] = JobTrace(job_id, machine, Fraction(committed, scale),
                                        Fraction(started, scale), Fraction(completed, scale))
            ends[job_id - 1] = completed
    return ScheduleTrace(tuple(rows)), ends


def _policy(scale: int, q: int, forced: bool) -> Callable[[Job, int, int], tuple[int, int, int]]:
    """(release, hold, floor) on the integer clock over `scale` = K*p for
    integer mean m: release max(r*K*p, m*q); forced-idle mode holds m*q,
    max-proc mode holds 0 with floor m*q.  A job runs max(drawn, floor)."""
    def timing(job: Job, machine: int, mean: int) -> tuple[int, int, int]:
        mq = mean * q
        release = max(job.release * scale, mq)
        return (release, mq, 0) if forced else (release, 0, mq)
    return timing


def simulate(inst: Instance, assignment: Assignment, realization: Realization,
             f: FractionLike, mode: str = "forced-idle") -> ScheduleTrace:
    """Trace of the policy on the speed-f clock for one realization."""
    f = _check_f_and_mode(f, mode)
    # the integer clock of the module docstring, over K*p
    k, q = inst.scaled.mean_scale, f.denominator
    scale, kq = k * f.numerator, k * q
    policy = _policy(scale, q, mode == "forced-idle")

    def timing(job: Job, machine: int, mean: int) -> tuple[int, int, int]:
        release, hold, floor = policy(job, machine, mean)
        return release, hold, max(realization.value(job.id, machine) * kq, floor)

    return _trace(inst, assignment, scale, timing)[0]


def simulate_wall_clock(inst: Instance, assignment: Assignment, realization: Realization,
                        f: FractionLike, mode: str = "forced-idle") -> ScheduleTrace:
    """Trace of the deployed policy on the original clock: releases at
    max{f*r_j, E[P_ij]}, full expected-duration hold, drawn durations.

    It keeps its `Fraction` timings (scale 1) and reads each mean off the
    distribution, not the integer mean `_trace` hands it: on the integer
    clock it would share `simulate`'s numerators, and `wall ==
    sped.scaled(f)` would then check nothing."""
    f = _check_f_and_mode(f, mode)

    def timing(job: Job, machine: int, _: int) -> tuple[Fraction, Fraction, Fraction]:
        mean = job.dist(machine).mean
        release = max(f * job.release, mean)
        drawn = Fraction(realization.value(job.id, machine))
        if mode == "forced-idle":
            return release, mean, drawn
        return release, Fraction(0), max(drawn, mean)

    return _trace(inst, assignment, 1, timing)[0]


def deterministic_schedule(inst: Instance, f: FractionLike,
                           assignment: Assignment) -> tuple[ScheduleTrace, Fraction]:
    """Speed-f trace of `assignment`, the greedy's `assign(inst, f)`,
    with durations pinned at their means and no holds.

    Same assignment and serving order as the stochastic run; this is the
    deterministic yardstick the dual certificate reads its table from.
    Times run on the integer clock over K*p, and the cost is one integer
    sum over that scale times the weight scale.
    """
    f = _check_f(f)
    scaled = inst.scaled
    scale = scaled.mean_scale * f.numerator
    # max-proc's timing with no draw: no hold, and the mean as duration
    trace, ends = _trace(inst, assignment, scale, _policy(scale, f.denominator, False))
    total = sum([w * end for w, end in zip(scaled.weights, ends)])
    return trace, Fraction(total, scaled.weight_scale * scale)


def deterministic_cost(inst: Instance, f: FractionLike) -> Fraction:
    return deterministic_schedule(inst, f, assign(inst, f))[1]


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    ci95: float
    samples: int
    per_job_mean: tuple[float, ...]
    per_job_ci95: tuple[float, ...]
    mode: str
    seed: int


def _mean_ci(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = max(0.0, (total_sq - total * total / n) / (n - 1))
    return mean, 1.96 * math.sqrt(var / n)


def estimate_cost(inst: Instance, f: FractionLike, samples: int, seed: int,
                  assignment: Assignment, mode: str = "forced-idle") -> CostEstimate:
    """Monte Carlo mean and 95% interval of the wall-clock cost of the
    policy on `assignment`, the greedy's `assign(inst, f)`.

    Each replication draws from its own child generator keyed by
    (seed, index), in machine-block order, so results are reproducible
    for a fixed (seed, samples).  It serves `simulate`'s integer queues,
    read on the wall clock over K*q: its completions and weighted cost
    are exact, and each becomes a float by one integer division.  On
    point masses every replication is the same trace, so the first is
    the estimate, with every interval 0.0.
    """
    f = _check_f_and_mode(f, mode)
    if samples < 1:
        raise ValueError("need at least one replication")
    scaled, q = inst.scaled, f.denominator
    kq = scaled.mean_scale * q
    policy = _policy(scaled.mean_scale * f.numerator, q, mode == "forced-idle")

    def static(job: Job, machine: int, mean: int) -> tuple[int, int, tuple]:
        release, hold, floor = policy(job, machine, mean)
        return release, hold, (floor, job.dist(machine))

    # static per-machine queues; only the drawn durations vary across replications
    layout = [entries for _, entries in _layout(inst, assignment, static)]
    weights, cost_scale = scaled.weights, scaled.weight_scale * kq

    # running sums, added in replication order
    total_sum = total_sq = 0.0
    job_sum = [0.0] * inst.n
    job_sq = [0.0] * inst.n
    ends = [0] * inst.n
    reps = 1 if inst.deterministic else samples
    for rep in range(reps):
        rng = random.Random(f"{seed}:{rep}")
        cost = 0
        for entries in layout:
            if len(entries) == 1:
                # released at release > 0 to an idle machine, as `_run_machine` serves it
                release, _, job_id, hold, (floor, dist) = entries[0]
                end = ends[job_id - 1] = release + hold + max(dist.sample(rng) * kq, floor)
                cost += weights[job_id - 1] * end
                continue
            drawn = [(release, rank, job_id, hold, max(dist.sample(rng) * kq, floor))
                     for release, rank, job_id, hold, (floor, dist) in entries]
            for job_id, _, _, end in _run_machine(drawn):
                ends[job_id - 1] = end
                cost += weights[job_id - 1] * end
        total = cost / cost_scale
        total_sum += total
        total_sq += total * total
        for j, end in enumerate(ends):
            end /= kq
            job_sum[j] += end
            job_sq[j] += end * end

    mean, ci = _mean_ci(total_sum, total_sq, reps)
    per_job = [_mean_ci(s, ssq, reps) for s, ssq in zip(job_sum, job_sq)]
    return CostEstimate(mean, ci, samples, tuple(m for m, _ in per_job),
                        tuple(c for _, c in per_job), mode, seed)
