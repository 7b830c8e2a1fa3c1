"""Online-list greedy: each arriving job goes to the machine where the
expected increase in total weighted completion time is smallest.

The increase accounts for the job's own expected completion in priority
order plus the delay it inflicts on lower-priority jobs already there.
The release-date greedy in `greedy_time` runs the same kernel.

Every run goes through `_dispatch`, which works on integers and returns
the chosen machines and the scores over one denominator.  `_run` wraps
them as the `GreedyRun` of `assign` and `assign_with_increases`;
`greedy_time.assign`, the LP horizon witness and `greedy_cost`, which
prices them with `fixed_assignment_cost`, read the machines alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .core import Instance, fixed_assignment_cost
from .errors import ForbiddenPairError

__all__ = ["Assignment", "GreedyRun", "expected_increase", "assign", "greedy_cost"]


@dataclass(frozen=True)
class Assignment:
    """Machine choice per job, indexed by job id (1-based)."""

    machines: tuple[int, ...]

    def machine_of(self, job_id: int) -> int:
        return self.machines[job_id - 1]

    def as_mapping(self) -> dict[int, int]:
        return {j + 1: m for j, m in enumerate(self.machines)}


class GreedyRun(NamedTuple):
    """One pass of the greedy: where each job went and the score it was
    accepted at (`increases[j - 1]` for job j).  Certificate builders
    read one run, so one subcommand dispatches once."""

    assignment: Assignment
    increases: tuple[Fraction, ...]


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


def _dispatch(inst: Instance, f: Optional[Fraction]) -> tuple[list[int], list[int], int]:
    """The greedy shared by the arrival-order and release-date models.

    Each job, in arrival order, goes to the permitted machine with the
    smallest score `w*work_before + mean*weight_after`; with a speed
    factor `f` (the release-date model) the score also carries the job's
    own charge 2*w*max{f*r, mean}.  Ties go to the lowest machine index.
    Returns the chosen machine and the accepted score of each job, and
    the scores' common denominator.

    Scores run on `inst.scaled`: with weights over W and means over L,
    and f = p/q, every score is an integer over W*L*q, so probes compare
    integers and no `Fraction` is built.  Each machine keeps one bucket
    per priority ratio, keyed by the reduced pair (w, mean) and holding
    the bucket's total mean and weight; a probe sums the buckets,
    comparing ratios by cross-multiplication.
    """
    scaled = inst.scaled
    weights, means = scaled.weights, scaled.means
    q = 1 if f is None else f.denominator
    release_scale = 0 if f is None else f.numerator * scaled.mean_scale
    denominator = scaled.weight_scale * scaled.mean_scale * q
    # per machine: [ratio numerator, ratio denominator, total mean, total weight]
    buckets: list[list[list[int]]] = [[] for _ in range(inst.machines)]
    bucket_of: list[dict[tuple[int, int], list[int]]] = [{} for _ in range(inst.machines)]

    chosen: list[int] = []
    scores: list[int] = []
    for job in inst.jobs:
        w = weights[job.id - 1]
        if f is not None:
            twice_w = 2 * w
            release = release_scale * job.release
        best = None
        best_machine0 = -1
        best_mean = 0
        last = None
        # enumerate() instead of job.permitted: the latter materializes a
        # tuple per job, noticeable on the ~5000-job tightness instances
        for machine0, dist in enumerate(job.proc):
            if dist is None:
                continue
            if dist is not last:  # rows often repeat one distribution
                last = dist
                mean = means[id(dist)]
                if f is not None:
                    own = twice_w * max(release, q * mean)
            work_before = mean
            weight_after = 0
            for a, b, work, weight in buckets[machine0]:
                if a * mean < w * b:
                    weight_after += weight
                else:
                    work_before += work
            score = w * work_before + mean * weight_after
            if f is not None:
                score = q * score + own
            if best is None or score < best:
                best = score
                best_machine0 = machine0
                best_mean = mean
        chosen.append(best_machine0 + 1)
        scores.append(best)
        g = math.gcd(w, best_mean)
        key = (w // g, best_mean // g)
        bucket = bucket_of[best_machine0].get(key)
        if bucket is None:
            bucket = [key[0], key[1], best_mean, w]
            bucket_of[best_machine0][key] = bucket
            buckets[best_machine0].append(bucket)
        else:
            bucket[2] += best_mean
            bucket[3] += w
    return chosen, scores, denominator


def _run(inst: Instance, f: Optional[Fraction]) -> GreedyRun:
    """`_dispatch` as a `GreedyRun`: the assignment and each job's
    accepted score as one `Fraction`."""
    chosen, scores, denominator = _dispatch(inst, f)
    return GreedyRun(Assignment(tuple(chosen)),
                     tuple([Fraction(score, denominator) for score in scores]))


def assign(inst: Instance) -> GreedyRun:
    """Run the greedy over jobs in arrival order.

    Returns the assignment and, per job, the expected increase it was
    accepted at.  Ties go to the lowest machine index.
    """
    return _run(inst, None)


def greedy_cost(inst: Instance) -> Fraction:
    """Expected total weighted completion time of the greedy assignment:
    `fixed_assignment_cost` of `_dispatch`'s machine choices.  The scores
    are not summed, so the price does not rest on the kernel's sums."""
    chosen, _, _ = _dispatch(inst, None)
    return fixed_assignment_cost(inst, dict(enumerate(chosen, start=1)))
