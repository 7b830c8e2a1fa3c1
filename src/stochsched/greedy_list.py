"""Online-list greedy: each arriving job goes to the machine where the
expected increase in total weighted completion time is smallest.

The increase accounts for the job's own expected completion in priority
order plus the delay it inflicts on lower-priority jobs already there.
The release-date greedy in `greedy_time` runs the same kernel.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .core import Instance, fixed_assignment_cost
from .errors import ForbiddenPairError

__all__ = ["Assignment", "expected_increase", "assign", "greedy_cost"]


@dataclass(frozen=True)
class Assignment:
    """Machine choice per job, indexed by job id (1-based)."""

    machines: tuple[int, ...]

    def machine_of(self, job_id: int) -> int:
        return self.machines[job_id - 1]

    def jobs_on(self, machine: int) -> tuple[int, ...]:
        return tuple(j + 1 for j, m in enumerate(self.machines) if m == machine)

    def as_mapping(self) -> dict[int, int]:
        return {j + 1: m for j, m in enumerate(self.machines)}


def expected_increase(inst: Instance, assigned: Mapping[int, int],
                      job_id: int, machine: int) -> Fraction:
    """Increase in expected total weighted completion time if `job_id`
    joins `machine`, given the jobs assigned so far.

    Two parts: the job's weight times the expected work at or above its
    priority (its own mean included), plus its mean times the weight it
    pushes back.  Equal priorities: smaller id goes first.
    """
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
    return job.weight * work_before + mean * weight_after


def _dispatch(inst: Instance, f: Optional[Fraction]) -> tuple[Assignment, tuple[Fraction, ...]]:
    """The greedy shared by the arrival-order and release-date models.

    Each job, in arrival order, goes to the permitted machine with the
    smallest score `w*work_before + mean*weight_after`; with a speed
    factor `f` (the release-date model) the score also carries the job's
    own charge 2*w*max{f*r, mean}.  Ties go to the lowest machine index.
    Returns the assignment and each job's accepted score.  Per-machine
    totals are bucketed by priority ratio so one pass over the distinct
    ratios answers each probe; this keeps large instances (thousands of
    jobs) tractable without changing any outcome.
    """
    # per machine: sorted distinct ratios + ratio -> [total mean, total weight]
    ratios: list[list[Fraction]] = [[] for _ in range(inst.machines)]
    buckets: list[dict[Fraction, list[Fraction]]] = [{} for _ in range(inst.machines)]
    ratio_memo: dict[tuple[int, int, int, int], Fraction] = {}
    # a probe's answer only changes when its machine accepts a job, so
    # stamp cached answers with a per-machine version; the tightness
    # families repeat one (weight, mean) pair millions of times
    version = [0] * inst.machines
    probe_memo: dict[tuple[int, int, int, int, int], list] = {}

    chosen: list[int] = []
    increases: list[Fraction] = []
    for job in inst.jobs:
        w = job.weight
        w_key = (w.numerator, w.denominator)
        if f is not None:
            scaled_release = f * job.release
            twice_w = 2 * w
        best = None
        best_machine = -1
        best_ratio = None
        best_mean = None
        # enumerate() instead of job.permitted: the latter materializes a
        # tuple per job, noticeable on the ~5000-job tightness instances
        for machine0, dist in enumerate(job.proc):
            if dist is None:
                continue
            mean = dist.mean
            key = w_key + (mean.numerator, mean.denominator)
            ratio = ratio_memo.get(key)
            if ratio is None:
                ratio = w / mean
                ratio_memo[key] = ratio
            pkey = (machine0,) + key
            hit = probe_memo.get(pkey)
            if hit is not None and hit[0] == version[machine0]:
                incr = hit[1]
            else:
                work_before = mean
                weight_after = Fraction(0)
                bucket = buckets[machine0]
                for r in ratios[machine0]:
                    pair = bucket[r]
                    if r < ratio:
                        weight_after += pair[1]
                    else:
                        work_before += pair[0]
                incr = w * work_before + mean * weight_after
                probe_memo[pkey] = [version[machine0], incr]
            if f is not None:
                incr += twice_w * max(scaled_release, mean)
            if best is None or incr < best:
                best = incr
                best_machine = machine0 + 1
                best_ratio = ratio
                best_mean = mean
        chosen.append(best_machine)
        increases.append(best)
        version[best_machine - 1] += 1
        bucket = buckets[best_machine - 1]
        pair = bucket.get(best_ratio)
        if pair is None:
            bucket[best_ratio] = [best_mean, w]
            insort(ratios[best_machine - 1], best_ratio)
        else:
            pair[0] += best_mean
            pair[1] += w
    return Assignment(tuple(chosen)), tuple(increases)


def assign(inst: Instance) -> tuple[Assignment, tuple[Fraction, ...]]:
    """Run the greedy over jobs in arrival order.

    Returns the assignment and, per job, the expected increase it was
    accepted at.  Ties go to the lowest machine index.
    """
    return _dispatch(inst, None)


def greedy_cost(inst: Instance) -> Fraction:
    """Expected total weighted completion time of the greedy assignment."""
    assignment, _ = assign(inst)
    return fixed_assignment_cost(inst, assignment.as_mapping())
